//! The steppable server core: job monitor, communicator, controller and
//! worker logic of one ThemisIO server (§4.1), independent of any thread or
//! transport so it can be driven by the threaded runtime, by tests, or by a
//! virtual clock.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use themis_baselines::Algorithm;
use themis_core::durability::DurabilitySpec;
use themis_core::engine::PolicyEngine;
use themis_core::entity::JobMeta;
use themis_core::job_table::JobTable;
use themis_core::policy::{Policy, PolicyError};
use themis_core::request::{Completion, IoRequest, OpKind};
use themis_core::shares::ShareMap;
use themis_core::sync::{LambdaClock, SyncConfig};
use themis_device::{DeviceConfig, DeviceModel, DeviceTimeline};
use themis_fs::{BurstBufferFs, FsError, OpenFlags, Whence};
use themis_net::message::{FsOp, FsReply, StageReply};
use themis_stage::{
    extent_checksum, write_back_guarded, BackingStore, CapacityTier, ClassTotals, DrainPipeline,
    DrainStatus, MigrationOutcome, RebalancePipeline, RebalanceStatus, ReplicatePipeline,
    ReplicateStatus, RestorePipeline, RestoreTarget, ScrubPipeline, ScrubStatus, StagedEngine,
    StagingConfig, TrafficClass,
};
use themis_telemetry::{
    Counter, DecisionTrace, Gauge, Histogram, MetricsRegistry, SeriesKey, TraceDump, TraceEvent,
    TraceKind, TraceLane,
};

/// Configuration of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Arbitration algorithm (ThemisIO with a policy, FIFO, GIFT or TBF).
    pub algorithm: Algorithm,
    /// Device model of this server's storage.
    pub device: DeviceConfig,
    /// λ-sync configuration.
    pub sync: SyncConfig,
    /// Heartbeat timeout after which a silent job is marked inactive (ns).
    pub heartbeat_timeout_ns: u64,
    /// Seed for the statistical-token draws, so runs are reproducible.
    pub rng_seed: u64,
    /// Staging configuration: when set, the server runs a capacity tier
    /// behind the burst buffer, drains dirty extents to it in the background
    /// (arbitrated by the policy engine at the configured foreground:drain
    /// weight), and evicts clean extents under watermark pressure.
    pub staging: Option<StagingConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            device: DeviceConfig::optane_ssd(),
            sync: SyncConfig::default(),
            heartbeat_timeout_ns: 5_000_000_000,
            rng_seed: 0x007e_1105,
            staging: None,
        }
    }
}

/// A staging reply that became ready during a poll (or synchronously while
/// handling a staging message), to be routed back by its request id.
#[derive(Debug, Clone)]
pub struct StageReady {
    /// Client-chosen request id.
    pub request_id: u64,
    /// The staging reply payload.
    pub reply: StageReply,
}

/// What a read-through read targets: a descriptor cursor or an absolute
/// position.
enum ReadTarget<'a> {
    Fd(u64),
    At(&'a str, u64),
}

/// A foreground operation parked behind policy-admitted restore traffic:
/// the request was released by the engine, found its target extents
/// evicted, and now waits for the restore pipeline to bring them back
/// before it executes (and is charged device time).
struct ParkedOp {
    request_id: u64,
    request: IoRequest,
    op: FsOp,
    /// When the op was parked, so the wake path can record the park
    /// duration (`park_ns`) it spent waiting behind arbitrated restores.
    parked_at_ns: u64,
    /// `(shard, path, stripe)` keys of the restores this op still waits on.
    /// Empty for an op parked purely for ordering (blocked-only): it queued
    /// no restores and waits only for the earlier overlapping ops ahead of
    /// it to execute.
    keys: std::collections::HashSet<(usize, String, u64)>,
    /// Every extent key the op targets — resident or evicted, not just the
    /// keys it queued restores for. Two parked ops whose full key sets
    /// intersect target overlapping extents, so the later one must not
    /// execute before the earlier one even if its own remaining keys empty
    /// first (their restores may land in different ticks), and a later
    /// foreground op whose extents are all resident must still park behind
    /// a parked op it overlaps ([`ServerCore::park_if_overlaps_parked`]).
    all_keys: std::collections::HashSet<(usize, String, u64)>,
}

/// An explicit `StageIn` request waiting for its queued restores.
struct PendingStageIn {
    request_id: u64,
    keys: std::collections::HashSet<(usize, String, u64)>,
    restored_bytes: u64,
}

/// Pre-resolved per-tenant instrument handles, interned on a tenant's first
/// completion so the completion path never touches the registry lock again.
struct TenantStats {
    ops_completed: Counter,
    bytes_completed: Counter,
    queue_delay_ns: Histogram,
    service_ns: Histogram,
}

/// The server's own telemetry: the (deployment-shared) metrics registry plus
/// pre-resolved handles for the layers the policy engine cannot see —
/// per-tenant completion accounting, foreground parking, burst-buffer
/// residency — and a decision-trace ring for park/wake events, merged with
/// the engine's scheduler ring by [`ServerCore::trace_dump_snapshot`].
///
/// Park/wake series live on the foreground class series
/// (`SeriesKey::class(server, "foreground")`); residency counters and the
/// instantaneous capacity gauges live on the `"fs"` layer series.
struct CoreTelemetry {
    registry: MetricsRegistry,
    tenants: HashMap<u64, TenantStats>,
    parked_ops: Counter,
    wakes: Counter,
    park_ns: Histogram,
    residency_hit_ops: Counter,
    residency_hit_bytes: Counter,
    residency_miss_ops: Counter,
    residency_miss_bytes: Counter,
    resident_bytes: Gauge,
    dirty_bytes: Gauge,
    backing_bytes: Gauge,
    trace: DecisionTrace,
}

impl CoreTelemetry {
    fn new(registry: MetricsRegistry, server: usize) -> Self {
        let fg = SeriesKey::class(server, "foreground");
        let fs = SeriesKey::class(server, "fs");
        CoreTelemetry {
            tenants: HashMap::new(),
            parked_ops: registry.counter(fg, "parked_ops"),
            wakes: registry.counter(fg, "wakes"),
            park_ns: registry.histogram(fg, "park_ns"),
            residency_hit_ops: registry.counter(fs, "residency_hit_ops"),
            residency_hit_bytes: registry.counter(fs, "residency_hit_bytes"),
            residency_miss_ops: registry.counter(fs, "residency_miss_ops"),
            residency_miss_bytes: registry.counter(fs, "residency_miss_bytes"),
            resident_bytes: registry.gauge(fs, "resident_bytes"),
            dirty_bytes: registry.gauge(fs, "dirty_bytes"),
            backing_bytes: registry.gauge(fs, "backing_bytes"),
            trace: DecisionTrace::default(),
            registry,
        }
    }

    /// The interned handles of `job`'s per-tenant series on `server`.
    fn tenant(&mut self, server: usize, job: u64) -> &TenantStats {
        let registry = &self.registry;
        self.tenants.entry(job).or_insert_with(|| {
            let key = SeriesKey::tenant(server, job);
            TenantStats {
                ops_completed: registry.counter(key, "ops_completed"),
                bytes_completed: registry.counter(key, "bytes_completed"),
                queue_delay_ns: registry.histogram(key, "queue_delay_ns"),
                service_ns: registry.histogram(key, "service_ns"),
            }
        })
    }
}

/// A class request waiting to land: `(finish_ns, class, seq,
/// drained_generation)`. The generation is the drained snapshot's (the
/// mark-clean guard) and `0` for every other class.
type Landing = (u64, TrafficClass, u64, u64);

/// The server-side staging state: the drain and restore pipelines, the
/// capacity tier and its device timeline, plus work waiting on either
/// pipeline.
struct StageState {
    pipeline: DrainPipeline,
    restore: RestorePipeline,
    scrub: ScrubPipeline,
    rebalance: RebalancePipeline,
    replicate: ReplicatePipeline,
    backing: Arc<dyn BackingStore>,
    backing_device: DeviceTimeline,
    /// The replica tier absorbing durability copies, with its own timeline:
    /// replication contends with the capacity tier for nothing but the
    /// burst-device slots the engine grants the replicate lane.
    replica: CapacityTier,
    replica_device: DeviceTimeline,
    /// The durability policy in force (`None`: every write is local-only).
    durability: Option<DurabilitySpec>,
    /// Every class request the engine released and executed, waiting for
    /// its device transfers to finish, earliest finish first.
    landings: BinaryHeap<Reverse<Landing>>,
    /// Foreground `sync` write acks parked until the replicas of every
    /// stripe they dirtied land.
    pending_sync_acks: Vec<(ReadyReply, std::collections::HashSet<(String, u64)>)>,
    /// Flushes waiting for their path's local extents to become clean.
    pending_flushes: Vec<(u64, String)>,
    /// Foreground operations waiting on restores.
    parked_ops: Vec<ParkedOp>,
    /// Explicit `StageIn` requests waiting on restores.
    pending_stage_ins: Vec<PendingStageIn>,
    /// Explicit `Scrub` requests waiting for their pass to complete, as
    /// `(request_id, pass_id)`.
    pending_scrubs: Vec<(u64, u64)>,
}

/// A reply that became ready during a [`ServerCore::poll`] call, tagged with
/// the service interval so callers can deliver it at the right (virtual or
/// real) time.
#[derive(Debug, Clone)]
pub struct ReadyReply {
    /// Client-chosen request id.
    pub request_id: u64,
    /// The reply payload.
    pub reply: FsReply,
    /// The completion record (job, timings) for accounting.
    pub completion: Completion,
}

/// One ThemisIO server: job monitor + request queues + controller + workers,
/// operating on a shared [`BurstBufferFs`].
pub struct ServerCore {
    /// Index of this server within the deployment.
    server_index: usize,
    config: ServerConfig,
    policy: Policy,
    /// Monotonic counter bumped by every accepted [`ServerCore::set_policy`];
    /// reported in control-plane acknowledgements so clients can tell which
    /// allocation epoch their traffic is arbitrated under.
    policy_epoch: u64,
    engine: Box<dyn PolicyEngine>,
    jobs: JobTable,
    lambda: LambdaClock,
    device: DeviceTimeline,
    fs: BurstBufferFs,
    rng: SmallRng,
    /// Operations queued with the scheduler but not yet executed, keyed by
    /// request sequence number.
    pending: HashMap<u64, (u64, FsOp)>,
    next_seq: u64,
    completions: u64,
    staging: Option<StageState>,
    telemetry: CoreTelemetry,
    stage_replies: Vec<StageReady>,
    /// Requests rejected at submission (e.g. a job id in the reserved drain
    /// range), answered by the next poll.
    rejected: Vec<ReadyReply>,
}

impl ServerCore {
    /// Creates a server operating on `fs`.
    ///
    /// When [`ServerConfig::staging`] is set the policy engine is wrapped in
    /// a [`StagedEngine`] so synthesized drain traffic shares the device at
    /// the configured foreground:drain weight, and a [`CapacityTier`] built
    /// from the staging config's backing device absorbs drained extents.
    pub fn new(server_index: usize, fs: BurstBufferFs, config: ServerConfig) -> Self {
        Self::with_backing(server_index, fs, config, None)
    }

    /// Like [`ServerCore::new`], but draining into a caller-supplied backing
    /// store. A multi-server deployment passes one shared [`CapacityTier`]
    /// to every server — the capacity file system behind the burst buffer is
    /// a single system, so any server can stage in extents drained by a
    /// peer. Ignored when staging is not configured.
    pub fn with_backing(
        server_index: usize,
        fs: BurstBufferFs,
        config: ServerConfig,
        backing: Option<Arc<dyn BackingStore>>,
    ) -> Self {
        Self::with_telemetry(server_index, fs, config, backing, MetricsRegistry::new())
    }

    /// Like [`ServerCore::with_backing`], but recording into a
    /// caller-supplied [`MetricsRegistry`]. A multi-server deployment passes
    /// one shared registry to every server so a single
    /// [`ServerCore::metrics_snapshot`] (answered by any server) covers the
    /// cluster. The policy engine is attached and every staging pipeline
    /// counts into the registry from construction, so their counters are
    /// live from the first request and status replies read the same handles.
    pub fn with_telemetry(
        server_index: usize,
        fs: BurstBufferFs,
        config: ServerConfig,
        backing: Option<Arc<dyn BackingStore>>,
        registry: MetricsRegistry,
    ) -> Self {
        let policy = config.algorithm.initial_policy();
        let mut engine: Box<dyn PolicyEngine> = match &config.staging {
            Some(sc) => {
                sc.drain
                    .validate()
                    .expect("staging drain configuration must be valid");
                Box::new(StagedEngine::with_weights(
                    config.algorithm.build(),
                    sc.drain.class_weights(),
                ))
            }
            None => config.algorithm.build(),
        };
        if let Some(staged) = engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
        {
            staged.attach_telemetry(&registry, server_index);
        }
        let staging = config.staging.as_ref().map(|sc| {
            let pipeline = DrainPipeline::new(server_index, sc.drain, &registry);
            let restore = RestorePipeline::new(server_index, sc.drain.max_inflight, &registry);
            let scrub = ScrubPipeline::new(
                server_index,
                sc.drain.classes.is_enabled(TrafficClass::Scrub),
                sc.drain.scrub_interval_ns,
                sc.drain.max_inflight,
                &registry,
            );
            let rebalance = RebalancePipeline::new(
                server_index,
                sc.drain.classes.is_enabled(TrafficClass::Rebalance),
                sc.drain.max_inflight,
                &registry,
            );
            // Replication runs only when the durability policy actually owes
            // replicas somewhere (and the class is not disabled outright);
            // otherwise the pipeline is constructed inert and takes no debt.
            let replicate = ReplicatePipeline::new(
                server_index,
                sc.drain.classes.is_enabled(TrafficClass::Replicate)
                    && sc.durability.as_ref().is_some_and(|d| d.any_replicated()),
                sc.drain.max_inflight,
                &registry,
            );
            let backing = backing.unwrap_or_else(|| match &sc.sharding {
                Some(spec) => {
                    let store = spec.build().expect("staging shard spec must be valid");
                    Arc::new(store) as Arc<dyn BackingStore>
                }
                None => Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>,
            });
            // Per-child health/latency series for a sharded tier, whether the
            // router was built here or handed in by the deployment (idempotent
            // for stores another server already attached to the same registry).
            if let Some(sharded) = backing.as_sharded() {
                sharded.attach_telemetry(&registry);
            }
            // The timeline models the tier the drains actually land on: a
            // sharded router advertises its slowest child.
            let backing_model = if backing.as_sharded().is_some() {
                backing.device()
            } else {
                sc.backing_device
            };
            StageState {
                pipeline,
                restore,
                scrub,
                rebalance,
                replicate,
                backing,
                backing_device: DeviceTimeline::new(DeviceModel::new(backing_model)),
                // The replica tier is deliberately *not* the capacity tier:
                // a copy that survives losing the burst buffer must live on
                // independent media, modelled with its own timeline.
                replica: CapacityTier::new(sc.backing_device),
                replica_device: DeviceTimeline::new(DeviceModel::new(sc.backing_device)),
                durability: sc.durability.clone(),
                landings: BinaryHeap::new(),
                pending_sync_acks: Vec::new(),
                pending_flushes: Vec::new(),
                parked_ops: Vec::new(),
                pending_stage_ins: Vec::new(),
                pending_scrubs: Vec::new(),
            }
        });
        let telemetry = CoreTelemetry::new(registry, server_index);
        let mut jobs = JobTable::with_heartbeat_timeout(config.heartbeat_timeout_ns);
        // A server index past the presence mask's capacity cannot be
        // attributed in per-job presence masks; run with the global view
        // (no viewpoint — localize_shares passes shares through unscaled)
        // instead of aliasing onto the last bit and corrupting server spans.
        let _ = jobs.set_viewpoint(server_index);
        ServerCore {
            server_index,
            policy,
            policy_epoch: 0,
            engine,
            jobs,
            lambda: LambdaClock::new(config.sync),
            device: DeviceTimeline::new(DeviceModel::new(config.device)),
            fs,
            rng: SmallRng::seed_from_u64(config.rng_seed ^ server_index as u64),
            pending: HashMap::new(),
            next_seq: 0,
            config,
            completions: 0,
            staging,
            telemetry,
            stage_replies: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// The metrics registry this server records into (shared across the
    /// deployment when constructed via [`ServerCore::with_telemetry`]).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.telemetry.registry
    }

    /// This server's index.
    pub fn server_index(&self) -> usize {
        self.server_index
    }

    /// The configuration this server was created with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The sharing policy in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The current policy epoch (0 at boot, +1 per [`ServerCore::set_policy`]).
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch
    }

    /// Swaps the sharing policy on the live server and returns the new
    /// epoch. The engine re-derives shares immediately; requests already
    /// admitted stay queued in arrival order and are arbitrated under the
    /// new allocation from the next worker poll — the epoch boundary moves
    /// shares, never requests.
    ///
    /// Rejected (policy, epoch and engine untouched) when the policy fails
    /// [`Policy::validate`] — defence in depth for values that arrived over
    /// the wire — or when the running engine is a fixed-algorithm baseline
    /// that would silently ignore the swap
    /// ([`PolicyError::UnsupportedEngine`]).
    pub fn set_policy(&mut self, policy: Policy) -> Result<u64, PolicyError> {
        policy.validate()?;
        if !self.engine.honors_policy() {
            return Err(PolicyError::UnsupportedEngine(self.engine.name()));
        }
        self.policy = policy;
        self.policy_epoch += 1;
        // Stamp the new epoch onto the scheduler's decision trace, so a
        // trace dump shows exactly which allocation each decision ran under.
        if let Some(staged) = self
            .engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
        {
            staged.set_trace_epoch(self.policy_epoch);
        }
        self.engine.reconfigure(&self.jobs, &self.policy);
        Ok(self.policy_epoch)
    }

    /// The configured λ interval.
    pub fn lambda_interval_ns(&self) -> u64 {
        self.lambda.interval_ns()
    }

    /// Number of requests queued and not yet served.
    pub fn queued(&self) -> usize {
        self.engine.queued()
    }

    /// Number of completed requests.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// The scheduler's current nominal share assignment.
    pub fn shares(&self) -> ShareMap {
        self.engine.shares()
    }

    /// The shared file system this server operates on.
    pub fn fs(&self) -> &BurstBufferFs {
        &self.fs
    }

    // ------------------------------------------------------------ job admin

    /// Handles a client hello or heartbeat (§4.1 job monitor).
    pub fn heartbeat(&mut self, meta: JobMeta, now_ns: u64) {
        self.jobs.heartbeat(meta, now_ns);
        self.engine.reconfigure(&self.jobs, &self.policy);
    }

    /// Handles a clean client disconnect.
    pub fn client_bye(&mut self, meta: JobMeta, _now_ns: u64) {
        self.jobs.remove(meta.job);
        self.engine.reconfigure(&self.jobs, &self.policy);
    }

    /// Expires silent jobs and refreshes shares if anything changed.
    pub fn expire_jobs(&mut self, now_ns: u64) {
        if self.jobs.expire(now_ns) > 0 {
            self.engine.reconfigure(&self.jobs, &self.policy);
        }
    }

    /// The server's local job status table (what it broadcasts at λ-sync).
    pub fn local_table(&self) -> JobTable {
        self.jobs.clone()
    }

    /// Whether a λ-sync round is due at `now_ns`.
    pub fn sync_due(&self, now_ns: u64) -> bool {
        self.lambda.due(now_ns)
    }

    /// Absorbs peer tables received in an all-gather round and marks the
    /// round complete (§3.1).
    pub fn absorb_peer_tables<'a>(
        &mut self,
        tables: impl IntoIterator<Item = &'a JobTable>,
        now_ns: u64,
    ) {
        for t in tables {
            self.jobs.merge_from(t);
        }
        self.lambda.mark(now_ns);
        self.engine.reconfigure(&self.jobs, &self.policy);
    }

    // --------------------------------------------------------------- the IO path

    /// Accepts an I/O request from a client: the communicator records the
    /// job, assigns a sequence number, and queues the request with the
    /// arbitration algorithm.
    ///
    /// Job ids in the reserved system range
    /// ([`themis_core::entity::RESERVED_JOB_BASE`] — the same boundary the
    /// client asserts against) are rejected with an error reply (delivered by
    /// the next [`ServerCore::poll`]): admitting one would let a client
    /// smuggle traffic into the drain class — or, worse, have the request
    /// mistaken for a drain and silently dropped.
    pub fn submit(&mut self, request_id: u64, meta: JobMeta, op: FsOp, now_ns: u64) {
        if meta.is_reserved() {
            let seq = self.next_seq;
            self.next_seq += 1;
            let request = IoRequest::new(seq, meta, op.op_kind(), op.payload_bytes(), now_ns);
            self.rejected.push(ReadyReply {
                request_id,
                reply: FsReply::Error(format!(
                    "job id {} is inside the reserved system job-id range (>= {})",
                    meta.job,
                    themis_core::entity::RESERVED_JOB_BASE
                )),
                completion: Completion {
                    request,
                    start_ns: now_ns,
                    finish_ns: now_ns,
                },
            });
            return;
        }
        self.jobs.observe_request(meta, now_ns);
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = IoRequest::new(seq, meta, op.op_kind(), op.payload_bytes(), now_ns);
        self.pending.insert(seq, (request_id, op));
        self.engine.admit(request);
    }

    /// Runs the worker loop at `now_ns`: while the device has an idle worker
    /// and the scheduler releases a request, execute it against the file
    /// system and record its service interval. Returns the replies that
    /// became ready, in completion order.
    ///
    /// With staging enabled the same loop also runs the staging pipelines:
    /// completed capacity-tier writes mark their extents clean, completed
    /// restores land their extents back in the shard (waking any parked
    /// foreground operations), watermark pressure evicts clean extents,
    /// fresh dirty extents are admitted as drain requests, queued restore
    /// targets are admitted as restore requests, and class requests the
    /// engine releases are executed against the burst-buffer device and the
    /// capacity tier. A foreground request whose target extents are evicted
    /// is *parked*: its restores are synthesized as policy-admitted
    /// [`TrafficClass::Restore`] traffic and the request executes — and is
    /// charged device time — only once they land, so stage-in bandwidth is
    /// arbitrated exactly like everything else instead of being stolen on
    /// the read path.
    pub fn poll(&mut self, now_ns: u64) -> Vec<ReadyReply> {
        let mut ready = std::mem::take(&mut self.rejected);
        self.stage_tick(now_ns, &mut ready);
        while self.device.has_idle_worker(now_ns) {
            let Some(request) = self.engine.select(now_ns, &mut self.rng) else {
                break;
            };
            if let Some(class) = TrafficClass::of(request.meta.job) {
                self.execute_class(class, &request, now_ns);
                continue;
            }
            let (request_id, op) = self
                .pending
                .remove(&request.seq)
                .expect("every queued request has a pending op");
            if self.park_if_needs_restore(request_id, &request, &op, now_ns) {
                // The op waits for its restores; the worker stays free for
                // other traffic (including the restores themselves).
                continue;
            }
            if self.park_if_overlaps_parked(request_id, &request, &op, now_ns) {
                // Every extent the op targets is resident, but an *earlier*
                // parked op overlaps them: executing now would let this
                // op's bytes be clobbered when the earlier op's restores
                // land and it executes last. Park behind it instead
                // (admission order), with no restores of its own.
                continue;
            }
            // The stripes a write dirties are computed *before* execution:
            // cursor writes move their descriptor's cursor when they run.
            let spans = self.write_spans(&op);
            let (start_ns, finish_ns) = self.device.dispatch(&request, now_ns);
            let reply = self.execute(&op, finish_ns);
            let completion = Completion {
                request,
                start_ns,
                finish_ns,
            };
            self.engine.complete(&completion);
            self.completions += 1;
            self.record_completion(&completion);
            self.note_durable_write(
                spans,
                ReadyReply {
                    request_id,
                    reply,
                    completion,
                },
                &mut ready,
                now_ns,
            );
        }
        ready
    }

    /// Records one foreground completion into its tenant's series: the op
    /// and byte totals the conformance oracle cross-checks against
    /// reply-derived accounting, plus queue-delay and service histograms.
    fn record_completion(&mut self, completion: &Completion) {
        let stats = self
            .telemetry
            .tenant(self.server_index, completion.request.meta.job.0);
        stats.ops_completed.inc();
        stats.bytes_completed.add(completion.request.bytes);
        stats.queue_delay_ns.record(completion.queue_delay_ns());
        stats.service_ns.record(completion.service_ns());
    }

    /// Records a park or wake decision into the core's trace ring. The
    /// virtual times are 0: parking happens outside the engine, after the
    /// slot was already granted.
    fn trace_park_event(&mut self, now_ns: u64, kind: TraceKind, request: &IoRequest) {
        self.telemetry.trace.record(TraceEvent {
            now_ns,
            server: self.server_index as u32,
            kind,
            lane: TraceLane::Foreground,
            job: request.meta.job.0,
            bytes: request.bytes,
            lane_vtime: 0.0,
            fg_vtime: 0.0,
            epoch: self.policy_epoch,
        });
    }

    // ------------------------------------------------------------- staging

    /// Whether this server runs the staging subsystem.
    pub fn staging_enabled(&self) -> bool {
        self.staging.is_some()
    }

    /// The capacity tier behind this server (for tests and inspection).
    pub fn backing(&self) -> Option<&Arc<dyn BackingStore>> {
        self.staging.as_ref().map(|s| &s.backing)
    }

    /// Refreshes the instantaneous capacity gauges (`fs` layer series) from
    /// the file system and capacity tier. Called before every status or
    /// metrics snapshot: gauges describe *now*, so they are sampled at read
    /// time rather than maintained on the write path.
    fn refresh_gauges(&self) {
        self.telemetry
            .resident_bytes
            .set(self.fs.resident_bytes_on(self.server_index) as i64);
        self.telemetry
            .dirty_bytes
            .set(self.fs.dirty_bytes_on(self.server_index) as i64);
        let backing = self
            .staging
            .as_ref()
            .map_or(0, |st| st.backing.bytes_stored());
        self.telemetry.backing_bytes.set(backing as i64);
    }

    /// A point-in-time staging status snapshot, `None` when staging is
    /// disabled. Includes the restore backlog
    /// ([`DrainStatus::pending_restore_bytes`]) so clients can observe the
    /// stage-in queue delay their reads of evicted data will land behind.
    pub fn drain_status_snapshot(&self) -> Option<DrainStatus> {
        let st = self.staging.as_ref()?;
        self.refresh_gauges();
        let t = &self.telemetry;
        let mut status = st.pipeline.status(
            t.resident_bytes.get() as u64,
            t.dirty_bytes.get() as u64,
            t.backing_bytes.get() as u64,
        );
        st.restore.fill_status(&mut status);
        Some(status)
    }

    /// Takes the staging replies that became ready (flush acknowledgements,
    /// stage-in results, status snapshots).
    pub fn take_stage_replies(&mut self) -> Vec<StageReady> {
        std::mem::take(&mut self.stage_replies)
    }

    /// Rejects staging-message metadata that claims a reserved job id (same
    /// boundary as [`ServerCore::submit`]): observing it would register the
    /// drain identity as a live tenant and dilute every real tenant's share.
    fn reject_reserved_stage(&mut self, request_id: u64, meta: &JobMeta) -> bool {
        if !meta.is_reserved() {
            return false;
        }
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Error(format!(
                "job id {} is inside the reserved system job-id range (>= {})",
                meta.job,
                themis_core::entity::RESERVED_JOB_BASE
            )),
        });
        true
    }

    /// Handles a `Flush` request: acknowledge immediately when the path has
    /// no dirty local extents (the no-op case), otherwise wait for the
    /// background drain — which the flush does not bypass; it is ordinary
    /// policy-arbitrated drain traffic — to make the path clean.
    pub fn flush(&mut self, request_id: u64, meta: JobMeta, path: &str, now_ns: u64) {
        if self.reject_reserved_stage(request_id, &meta) {
            return;
        }
        self.jobs.observe_request(meta, now_ns);
        let path = match themis_fs::path::normalize(path) {
            Ok(p) => p,
            Err(e) => {
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Error(e.to_string()),
                });
                return;
            }
        };
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::Error("staging is not enabled on this server".into()),
            });
            return;
        };
        let busy = self.fs.path_dirty_on(server, &path).unwrap_or(false)
            || st.pipeline.has_inflight_for(&path);
        if busy {
            st.pending_flushes.push((request_id, path));
        } else {
            let backing_bytes = st.backing.bytes_for(&path);
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::Flushed { backing_bytes },
            });
        }
    }

    /// Handles a `StageIn` request: restores the evicted extents of the path
    /// on **this server's shard** from the capacity tier. Like dirty state,
    /// evicted state is server-local — the client broadcasts `StageIn` so
    /// every shard restores its own stripes exactly once (no duplicated
    /// restore work, exact byte counts).
    ///
    /// The restores are synthesized as policy-admitted
    /// [`TrafficClass::Restore`] requests — a large stage-in no longer
    /// bypasses the engine and cannot starve policy-arbitrated foreground
    /// traffic — so the acknowledgement is deferred until every queued
    /// extent has landed (delivered by a later [`ServerCore::poll`]).
    pub fn stage_in(&mut self, request_id: u64, meta: JobMeta, path: &str, now_ns: u64) {
        if self.reject_reserved_stage(request_id, &meta) {
            return;
        }
        self.jobs.observe_request(meta, now_ns);
        let path = match themis_fs::path::normalize(path) {
            Ok(p) => p,
            Err(e) => {
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Error(e.to_string()),
                });
                return;
            }
        };
        let shard = self.server_index;
        let evicted = self.fs.evicted_extents_on(shard, Some(&path));
        let Some(st) = self.staging.as_mut() else {
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::Error("staging is not enabled on this server".into()),
            });
            return;
        };
        if evicted.is_empty() {
            // Everything already resident: an immediate no-op ack.
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::StagedIn { restored_bytes: 0 },
            });
            return;
        }
        let mut keys = std::collections::HashSet::new();
        for (p, stripe, len) in evicted {
            let target = RestoreTarget {
                shard,
                path: p,
                stripe,
                bytes: len,
                pin_dirty: false,
            };
            keys.insert(target.key());
            st.restore.request(target);
        }
        st.pending_stage_ins.push(PendingStageIn {
            request_id,
            keys,
            restored_bytes: 0,
        });
    }

    /// Answers a status query immediately: `status` wrapped by `wrap`, or
    /// an error when staging is disabled.
    fn reply_status<T>(&mut self, request_id: u64, status: Option<T>, wrap: fn(T) -> StageReply) {
        let reply = status.map_or_else(
            || StageReply::Error("staging is not enabled on this server".into()),
            wrap,
        );
        self.stage_replies.push(StageReady { request_id, reply });
    }

    /// Handles a `DrainStatus` request.
    pub fn drain_status(&mut self, request_id: u64) {
        let status = self.drain_status_snapshot();
        self.reply_status(request_id, status, StageReply::Status);
    }

    /// A point-in-time scrub status snapshot, `None` when staging is
    /// disabled.
    pub fn scrub_status_snapshot(&self) -> Option<ScrubStatus> {
        Some(self.staging.as_ref()?.scrub.status())
    }

    /// Handles a `MetricsSnapshot` request: refreshes this server's gauges
    /// and cuts one snapshot of the registry — the whole deployment's
    /// metrics when the registry is shared ([`ServerCore::with_telemetry`]).
    /// Works with or without staging; the reply is immediate.
    pub fn metrics_snapshot(&mut self, request_id: u64, now_ns: u64) {
        self.refresh_gauges();
        let snap = self.telemetry.registry.snapshot(now_ns);
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Metrics(snap),
        });
    }

    /// Handles a `TraceDump` request: the newest `max_events` scheduler and
    /// park/wake decisions of **this** server, merged by decision time. The
    /// reply is immediate; the dump is empty when the telemetry crate's
    /// `trace` feature is compiled out.
    pub fn trace_dump(&mut self, request_id: u64, max_events: u64) {
        let dump = self.trace_dump_snapshot(max_events as usize);
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Trace(dump),
        });
    }

    /// Merges the engine's scheduler-decision ring with the core's
    /// park/wake ring, newest `max` events retained (oldest first).
    pub fn trace_dump_snapshot(&mut self, max: usize) -> TraceDump {
        let core = self.telemetry.trace.dump(max);
        let engine = self
            .engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
            .map(|e| e.trace_dump(max))
            .unwrap_or_default();
        let mut events: Vec<TraceEvent> = engine.events;
        events.extend(core.events);
        events.sort_by_key(|e| e.now_ns);
        let cut = events.len() - max.min(events.len());
        let events = events.split_off(cut);
        TraceDump {
            events,
            dropped: engine.dropped + core.dropped + cut as u64,
        }
    }

    /// Handles a `Scrub` request: demands a full checksum pass over this
    /// server's share of the capacity tier — forced even when the
    /// continuous background scrubber is disabled. The acknowledgement
    /// (carrying the post-pass [`ScrubStatus`]) is **deferred** until the
    /// pass completes, delivered by a later [`ServerCore::poll`]; the
    /// verification traffic it triggers is ordinary policy-arbitrated
    /// [`TrafficClass::Scrub`] traffic, so a demand scrub cannot starve
    /// foreground tenants.
    pub fn scrub(&mut self, request_id: u64) {
        let Some(st) = self.staging.as_mut() else {
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::Error("staging is not enabled on this server".into()),
            });
            return;
        };
        let pass = st.scrub.force_pass();
        st.pending_scrubs.push((request_id, pass));
    }

    /// Handles a `ScrubStatus` request: an immediate snapshot reply.
    pub fn scrub_status(&mut self, request_id: u64) {
        let status = self.scrub_status_snapshot();
        self.reply_status(request_id, status, StageReply::Scrub);
    }

    /// A point-in-time rebalance status snapshot, `None` when staging is
    /// disabled. On an unsharded tier the snapshot reports `sharded: false`
    /// with every counter zero.
    pub fn rebalance_status_snapshot(&self) -> Option<RebalanceStatus> {
        let st = self.staging.as_ref()?;
        Some(st.rebalance.status(st.backing.as_sharded()))
    }

    /// Handles a `RebalanceStatus` request: an immediate snapshot reply.
    pub fn rebalance_status(&mut self, request_id: u64) {
        let status = self.rebalance_status_snapshot();
        self.reply_status(request_id, status, StageReply::Rebalance);
    }

    /// A point-in-time replication status snapshot, `None` when staging is
    /// disabled.
    pub fn replicate_status_snapshot(&self) -> Option<ReplicateStatus> {
        Some(self.staging.as_ref()?.replicate.status())
    }

    /// Handles a `ReplicateStatus` request: an immediate snapshot reply.
    pub fn replicate_status(&mut self, request_id: u64) {
        let status = self.replicate_status_snapshot();
        self.reply_status(request_id, status, StageReply::Replicate);
    }

    /// What `class` has done on this server, `None` when staging is
    /// disabled: the bytes it landed, what it still owes and the transfers
    /// it gave up on, read from the same registry handles as the status
    /// snapshots. Drain owes the shard's dirty bytes; scrub owes nothing,
    /// because its passes are paced and keep no debt.
    pub fn class_totals(&self, class: TrafficClass) -> Option<ClassTotals> {
        let st = self.staging.as_ref()?;
        let (landed, owed, failed) = match class {
            TrafficClass::Drain => {
                let s = self.drain_status_snapshot()?;
                (s.drained_bytes, s.dirty_bytes, 0)
            }
            TrafficClass::Restore => {
                let s = self.drain_status_snapshot()?;
                (s.restored_bytes, s.pending_restore_bytes, 0)
            }
            TrafficClass::Scrub => {
                let s = st.scrub.status();
                (s.scrubbed_bytes, 0, s.errors_detected)
            }
            TrafficClass::Rebalance => {
                let s = st.rebalance.status(st.backing.as_sharded());
                (s.migrated_bytes, s.pending_bytes, s.failed_extents)
            }
            TrafficClass::Replicate => {
                let s = st.replicate.status();
                (s.replicated_bytes, s.lag_bytes, s.failed_replications)
            }
        };
        Some(ClassTotals {
            landed,
            owed,
            failed,
        })
    }

    /// The replica tier's **verified** copy of `(path, stripe)` — `None`
    /// when staging is disabled, no replica landed, or the copy fails its
    /// checksum. The crash-before-replicate oracle reads this to prove that
    /// acked `local_plus_one`/`sync` bytes survive losing the burst tier;
    /// `local_only` data legitimately answers `None`.
    pub fn replica_extent(&self, path: &str, stripe: u64) -> Option<Vec<u8>> {
        let st = self.staging.as_ref()?;
        themis_stage::verified_read_back(&st.replica, path, stripe)
    }

    /// Demands a heal pass over the sharded capacity tier: a migration pass
    /// even without a map change, re-replicating any range a lost replica
    /// left under-replicated. A no-op without staging or on an unsharded
    /// tier.
    pub fn force_rebalance_pass(&mut self) {
        if let Some(st) = self.staging.as_mut() {
            if st.backing.as_sharded().is_some() {
                st.rebalance.force_pass();
            }
        }
    }

    /// Synchronous fallback restore of evicted extents of `path`, returning
    /// the bytes copied back. The *primary* stage-in path is the policy-
    /// admitted restore pipeline ([`ServerCore::park_if_needs_restore`]);
    /// this fallback only runs when a foreground operation discovers an
    /// eviction the parking pre-check could not see — a peer server evicting
    /// a shared-shard extent between the check and the execution — and is
    /// charged to the device timelines directly (the race window is a
    /// single operation wide, so the uncharged bandwidth is bounded).
    ///
    /// With `targets = Some(stripes)` only those stripes are restored, and
    /// they come back *pinned dirty* so a concurrent evictor cannot race the
    /// caller (the restore-for-write path: the write re-dirties them
    /// anyway, and untouched evicted extents stay in the tier — reads serve
    /// them by read-through). With `targets = None` every evicted extent of
    /// the path is restored clean (the tier still holds identical copies).
    fn restore_extents(
        &mut self,
        shards: std::ops::Range<usize>,
        path: &str,
        now_ns: u64,
        targets: Option<&std::collections::HashSet<u64>>,
    ) -> u64 {
        let Some(st) = self.staging.as_mut() else {
            return 0;
        };
        let pin_dirty = targets.is_some();
        let mut restored = 0u64;
        for shard in shards {
            for (p, stripe, _) in self.fs.evicted_extents_on(shard, Some(path)) {
                if targets.is_some_and(|set| !set.contains(&stripe)) {
                    continue;
                }
                // Verified read: a corrupt tier copy is a miss, never a
                // restore source (see the stage crate's verified_read_back).
                let Some(data) = themis_stage::verified_read_back(st.backing.as_ref(), &p, stripe)
                else {
                    continue;
                };
                // Charge the capacity tier the read and the burst buffer the
                // write-back.
                let len = data.len() as u64;
                let meta = st.pipeline.meta();
                let read = IoRequest::new(0, meta, OpKind::Read, len, now_ns);
                let (_, read_finish) = st.backing_device.dispatch(&read, now_ns);
                let write = IoRequest::new(0, meta, OpKind::Write, len, read_finish);
                self.device.dispatch(&write, read_finish);
                self.fs
                    .restore_extent_on(shard, &p, stripe, data, pin_dirty);
                restored += len;
            }
        }
        restored
    }

    /// One staging maintenance pass: land class requests whose transfers
    /// finished (waking parked foreground operations, pending stage-in acks
    /// and parked `sync` acks), evict under watermark pressure, admit fresh
    /// traffic of every class, acknowledge finished scrub passes and
    /// flushes.
    fn stage_tick(&mut self, now_ns: u64, ready: &mut Vec<ReadyReply>) {
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            return;
        };

        // 1. Landings whose transfers finished, in class (registry) order,
        //    then finish time: drains mark extents clean before a same-tick
        //    scrub judges them. Every landing runs *before* the eviction
        //    pass, so neither a freshly restored extent nor a scrub repair's
        //    burst-copy source can be reclaimed in the tick it is needed.
        let mut due = Vec::new();
        while let Some(&Reverse(landing)) = st.landings.peek() {
            if landing.0 > now_ns {
                break;
            }
            st.landings.pop();
            due.push(landing);
        }
        due.sort_unstable_by_key(|&(finish_ns, class, seq, _)| (class, finish_ns, seq));
        let (early, late) = due.split_at(due.partition_point(|l| l.1 <= TrafficClass::Restore));
        let mut landed: Vec<(usize, String, u64, u64)> = Vec::new();
        let mut replicated: Vec<(String, u64)> = Vec::new();
        for &landing in early {
            self.land(landing, now_ns, &mut landed, &mut replicated);
        }

        // 1b. Wake waiters of the landed restores: pending stage-in acks
        //     accumulate restored bytes, parked foreground ops whose last
        //     restore landed execute now (charged device time from `now`).
        //     This runs between the restore and the scrub landings.
        if !landed.is_empty() {
            let Some(st) = self.staging.as_mut() else {
                return;
            };
            let mut j = 0;
            while j < st.pending_stage_ins.len() {
                let pending = &mut st.pending_stage_ins[j];
                for (shard, path, stripe, actual) in &landed {
                    if pending.keys.remove(&(*shard, path.clone(), *stripe)) {
                        pending.restored_bytes += actual;
                    }
                }
                if pending.keys.is_empty() {
                    let done = st.pending_stage_ins.swap_remove(j);
                    self.stage_replies.push(StageReady {
                        request_id: done.request_id,
                        reply: StageReply::StagedIn {
                            restored_bytes: done.restored_bytes,
                        },
                    });
                } else {
                    j += 1;
                }
            }
            // Order-preserving wake: parked ops execute in admission order,
            // and an op whose restores all landed still waits while an
            // *earlier* parked op targeting overlapping extents (full key
            // sets intersect) is parked — otherwise two writes to the same
            // stripe could swap when their restores land in different
            // ticks. `Vec::remove`, not `swap_remove`, keeps the order.
            let mut unparked: Vec<ParkedOp> = Vec::new();
            let mut blocked: std::collections::HashSet<(usize, String, u64)> =
                std::collections::HashSet::new();
            let mut j = 0;
            while j < st.parked_ops.len() {
                let parked = &mut st.parked_ops[j];
                for (shard, path, stripe, _) in &landed {
                    parked.keys.remove(&(*shard, path.clone(), *stripe));
                }
                let held_up =
                    !parked.keys.is_empty() || parked.all_keys.iter().any(|k| blocked.contains(k));
                if held_up {
                    blocked.extend(parked.all_keys.iter().cloned());
                    j += 1;
                } else {
                    unparked.push(st.parked_ops.remove(j));
                }
            }
            for parked in unparked {
                self.telemetry.wakes.inc();
                self.telemetry
                    .park_ns
                    .record(now_ns.saturating_sub(parked.parked_at_ns));
                self.trace_park_event(now_ns, TraceKind::Wake, &parked.request);
                let spans = self.write_spans(&parked.op);
                let (start_ns, finish_ns) = self.device.dispatch(&parked.request, now_ns);
                let reply = self.execute(&parked.op, finish_ns);
                let completion = Completion {
                    request: parked.request,
                    start_ns,
                    finish_ns,
                };
                self.engine.complete(&completion);
                self.completions += 1;
                self.record_completion(&completion);
                self.note_durable_write(
                    spans,
                    ReadyReply {
                        request_id: parked.request_id,
                        reply,
                        completion,
                    },
                    ready,
                    now_ns,
                );
            }
        }

        for &landing in late {
            self.land(landing, now_ns, &mut landed, &mut replicated);
        }
        let Some(st) = self.staging.as_mut() else {
            return;
        };

        // 1c. Release the `sync` acks parked on the landed replica keys.
        if !replicated.is_empty() {
            let mut j = 0;
            while j < st.pending_sync_acks.len() {
                for key in &replicated {
                    st.pending_sync_acks[j].1.remove(key);
                }
                if st.pending_sync_acks[j].1.is_empty() {
                    let (reply, _) = st.pending_sync_acks.swap_remove(j);
                    st.replicate.record_sync_released();
                    ready.push(reply);
                } else {
                    j += 1;
                }
            }
        }

        // 2. Watermark eviction: reclaim clean extents down to the low
        //    watermark. Dirty extents are never touched.
        let cfg = *st.pipeline.config();
        if self.fs.resident_bytes_on(server) > cfg.high_watermark_bytes {
            let evicted = self.fs.evict_clean_on(server, cfg.low_watermark_bytes);
            let bytes: u64 = evicted.iter().map(|(_, _, len)| len).sum();
            if !evicted.is_empty() {
                st.pipeline.record_eviction(evicted.len() as u64, bytes);
            }
        }

        // 3. Admission: every class synthesizes its due work as policy-
        //    arbitrated requests, in registry order.
        for class in TrafficClass::ALL {
            self.admit_class(class, now_ns);
        }
        let Some(st) = self.staging.as_mut() else {
            return;
        };

        // 3b. Close the scrub pass once its cursor and inflight set drain,
        //     resolving the deferred `Scrub` acknowledgements it answers
        //     (including the trivially complete pass over an empty tier);
        //     likewise close the rebalance pass.
        if let Some(pass) = st.scrub.finish_pass_if_idle(now_ns) {
            let status = st.scrub.status();
            let mut j = 0;
            while j < st.pending_scrubs.len() {
                if st.pending_scrubs[j].1 <= pass {
                    let (request_id, _) = st.pending_scrubs.swap_remove(j);
                    self.stage_replies.push(StageReady {
                        request_id,
                        reply: StageReply::Scrub(status.clone()),
                    });
                } else {
                    j += 1;
                }
            }
        }
        st.rebalance.finish_pass_if_idle();

        // 4. Flushes whose path became clean locally.
        let mut j = 0;
        while j < st.pending_flushes.len() {
            let path = &st.pending_flushes[j].1;
            let busy = self.fs.path_dirty_on(server, path).unwrap_or(false)
                || st.pipeline.has_inflight_for(path);
            if busy {
                j += 1;
            } else {
                let (request_id, path) = st.pending_flushes.swap_remove(j);
                let backing_bytes = st.backing.bytes_for(&path);
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Flushed { backing_bytes },
                });
            }
        }
    }

    /// Lands one class request whose device transfers finished, applying
    /// its effect. Restores note their `(shard, path, stripe, bytes)` in
    /// `landed` and replicate copies their key in `replicated`, so
    /// [`ServerCore::stage_tick`] can release the waiters behind them.
    fn land(
        &mut self,
        (_, class, seq, generation): Landing,
        now_ns: u64,
        landed: &mut Vec<(usize, String, u64, u64)>,
        replicated: &mut Vec<(String, u64)>,
    ) {
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        match class {
            // The capacity-tier write finished: mark clean (unless a
            // concurrent write re-dirtied the extent — the generation check).
            TrafficClass::Drain => {
                if let Some(d) = st.pipeline.complete(seq) {
                    self.fs.mark_clean_on(server, &d.path, d.stripe, generation);
                }
            }
            // Copy the tier's extent back into the shard and note the landed
            // key.
            TrafficClass::Restore => {
                // Read the tier copy at completion time, not admission time:
                // if the path was unlinked while the restore was in flight
                // the copy is gone and the restore degrades to a no-op
                // (delete wins here too). The read is *verified*: a corrupt
                // tier copy must never be restored into the burst buffer,
                // where it would pass for a clean repair source and launder
                // the damage past every future scrub (the scrub pass
                // quarantines it instead).
                let data = st.restore.inflight(seq).and_then(|t| {
                    themis_stage::verified_read_back(st.backing.as_ref(), &t.path, t.stripe)
                });
                let actual = data.as_ref().map(|d| d.len() as u64).unwrap_or(0);
                let Some(target) = st.restore.complete(seq, actual) else {
                    return;
                };
                if let Some(data) = data {
                    self.fs.restore_extent_on(
                        target.shard,
                        &target.path,
                        target.stripe,
                        data,
                        target.pin_dirty,
                    );
                }
                landed.push((target.shard, target.path, target.stripe, actual));
            }
            // Judge the tier copy against the checksum recorded at drain
            // write-back time. On a mismatch, repair from a clean resident
            // burst copy; defer to the pending drain when a concurrent
            // foreground write re-dirtied the extent (the generation guard —
            // the scrubber must never push unflushed data into the tier);
            // quarantine when no repair source remains.
            TrafficClass::Scrub => {
                let Some(target) = st.scrub.complete(seq) else {
                    return;
                };
                match st
                    .backing
                    .read_back_with_checksum(&target.path, target.stripe)
                {
                    // Unlinked mid-scrub (delete-wins): nothing to verify.
                    None => {}
                    Some((data, stored)) => {
                        let bytes = data.len() as u64;
                        if extent_checksum(&data) == stored {
                            st.scrub.record_clean(bytes);
                        } else if self
                            .fs
                            .snapshot_extent_on(server, &target.path, target.stripe)
                            .is_some()
                        {
                            // The shard copy is dirty: a foreground write
                            // moved the generation mid-scrub, so the pending
                            // drain — which will rewrite copy and checksum
                            // together — owns the tier copy's next contents.
                            st.scrub.record_superseded(bytes);
                        } else if let Some(good) =
                            self.fs
                                .resident_extent_on(server, &target.path, target.stripe)
                        {
                            // A clean resident burst copy is byte-identical
                            // to what the tier should hold: repair. Charge
                            // the burst device the copy's read and the
                            // capacity tier the rewrite.
                            let meta = st.scrub.meta();
                            let cost = good.len().max(1) as u64;
                            let read = IoRequest::new(0, meta, OpKind::Read, cost, now_ns);
                            let (_, read_finish) = self.device.dispatch(&read, now_ns);
                            let write = IoRequest::new(0, meta, OpKind::Write, cost, read_finish);
                            st.backing_device.dispatch(&write, read_finish);
                            st.backing.write_back(&target.path, target.stripe, &good);
                            st.scrub.record_repaired(bytes);
                        } else {
                            // No repair source (evicted or never resident
                            // here): the tier copy was the only one, and it
                            // is damaged. Quarantine and surface it.
                            st.scrub
                                .record_quarantined(target.path, target.stripe, bytes);
                        }
                    }
                }
            }
            // Apply the migration plan against the sharded tier. The plan is
            // re-derived at apply time from the *current* map — a migration
            // admitted under a since-superseded map or for a since-unlinked
            // extent degrades to `Superseded` (delete wins) — and every copy
            // re-verifies against its write-back checksum, so a migration can
            // heal an under-replicated range but never launder a corrupt
            // extent: with no healthy replica it is refused (`Failed`) and
            // the extent left in place for the scrubber to quarantine.
            TrafficClass::Rebalance => {
                let Some(plan) = st.rebalance.complete(seq) else {
                    return;
                };
                let Some(sharded) = st.backing.as_sharded() else {
                    return;
                };
                match sharded.apply_migration(&plan) {
                    MigrationOutcome::Migrated {
                        bytes,
                        copies,
                        removed,
                    } => st.rebalance.record_migrated(bytes, copies, removed),
                    MigrationOutcome::Superseded => st.rebalance.record_superseded(),
                    MigrationOutcome::Failed => st.rebalance.record_failed(),
                }
            }
            // Land the extent's *current* bytes on the replica tier — a copy
            // admitted before a re-dirtying write still replicates the newest
            // contents. The source is the resident burst extent when one
            // exists, else the capacity tier's copy through the verified
            // seam: unverifiable bytes are never replicated; the copy fails
            // visibly instead.
            TrafficClass::Replicate => {
                let Some(target) = st.replicate.complete(seq) else {
                    return;
                };
                // The extent lives on the shard its stripe hashes to, which
                // may not be the server that executed the write.
                let shard = self
                    .fs
                    .layout_of(&target.path)
                    .ok()
                    .and_then(|l| l.server_for_stripe(target.stripe))
                    .map(|id| id.0)
                    .unwrap_or(server);
                let data = self
                    .fs
                    .resident_extent_on(shard, &target.path, target.stripe)
                    .or_else(|| {
                        themis_stage::verified_read_back(
                            st.backing.as_ref(),
                            &target.path,
                            target.stripe,
                        )
                    });
                match data {
                    Some(data) => {
                        st.replica.write_back(&target.path, target.stripe, &data);
                        st.replicate.record_replicated(data.len() as u64);
                    }
                    // Unlinked mid-copy (delete wins) or no verifiable
                    // source: the debt retires without a replica.
                    None => st.replicate.record_failed(),
                }
                replicated.push(target.key());
            }
        }
    }

    /// Feeds `class`'s due work to the policy engine, up to its pipeline's
    /// depth: fresh dirty extents become drains, queued restore targets
    /// restores and queued replica debt copies; when a pass is due (or
    /// demanded) the scrub and rebalance cursors walk the capacity tier.
    /// Each server scrubs and migrates exactly the tier extents whose
    /// stripes its layout shard owns, so a multi-server deployment covers
    /// the shared tier once; orphaned extents (no live layout) fall to
    /// server 0. Rebalance is a no-op on an unsharded tier.
    fn admit_class(&mut self, class: TrafficClass, now_ns: u64) {
        let server = self.server_index;
        let fs = &self.fs;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let owns = |path: &str, stripe: u64| match fs.layout_of(path) {
            Ok(layout) => layout.server_for_stripe(stripe).map(|id| id.0) == Some(server),
            Err(_) => server == 0,
        };
        let capacity = st.pipeline.admission_capacity();
        let mut dirty = match class {
            TrafficClass::Drain if capacity > 0 => {
                fs.dirty_extents_on(server, capacity, st.pipeline.inflight_keys())
            }
            _ => Vec::new(),
        }
        .into_iter();
        loop {
            let seq = self.next_seq;
            let request = match class {
                TrafficClass::Drain => dirty.next().map(|(path, stripe, generation, len)| {
                    st.pipeline
                        .admit(seq, path, stripe, generation, len.max(1), now_ns)
                }),
                TrafficClass::Restore => st.restore.admit_next(seq, now_ns),
                TrafficClass::Scrub => st.scrub.admit_next(seq, now_ns, st.backing.as_ref(), owns),
                TrafficClass::Rebalance => st
                    .backing
                    .as_sharded()
                    .and_then(|sharded| st.rebalance.admit_next(seq, now_ns, sharded, owns)),
                TrafficClass::Replicate => st.replicate.admit_next(seq, now_ns),
            };
            let Some(request) = request else {
                break;
            };
            self.next_seq += 1;
            self.engine.admit(request);
        }
    }

    /// The `(stripe, bytes-written-into-it)` spans a write operation dirties,
    /// with the normalized target path — `None` for non-writes and writes the
    /// layout cannot resolve. Cursor writes read the descriptor's *current*
    /// cursor, so this must run before the write executes.
    fn write_spans(&self, op: &FsOp) -> Option<(String, Vec<(u64, u64)>)> {
        self.staging.as_ref()?;
        let (path, offset, len) = match op {
            FsOp::WriteAt { path, offset, data } => (path.clone(), *offset, data.len() as u64),
            FsOp::Write { fd, data } => {
                let path = self.fs.fd_path(*fd).ok()?;
                // lseek(0, CUR) reads the cursor without moving it.
                let cursor = self.fs.lseek(*fd, 0, Whence::Cur).ok()?;
                (path, cursor, data.len() as u64)
            }
            _ => return None,
        };
        if len == 0 {
            return None;
        }
        let path = themis_fs::path::normalize(&path).ok()?;
        let stripe_size = self.fs.layout_of(&path).ok()?.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        let end = offset.saturating_add(len - 1);
        let mut spans = Vec::new();
        for stripe in offset / stripe_size..=end / stripe_size {
            let extent_start = stripe * stripe_size;
            let extent_end = extent_start.saturating_add(stripe_size);
            let lo = offset.max(extent_start);
            let hi = offset.saturating_add(len).min(extent_end);
            spans.push((stripe, hi.saturating_sub(lo)));
        }
        Some((path, spans))
    }

    /// Records the replica debt an executed foreground write created under
    /// the durability policy, then delivers the reply — immediately for
    /// `local_only`/`local_plus_one` writes (and every non-write), or parked
    /// on the replicate pipeline for `sync` writes, whose acks wait until
    /// the replicas of every stripe they dirtied land
    /// ([`ServerCore::stage_tick`] releases them).
    fn note_durable_write(
        &mut self,
        spans: Option<(String, Vec<(u64, u64)>)>,
        reply: ReadyReply,
        ready: &mut Vec<ReadyReply>,
        now_ns: u64,
    ) {
        let meta = reply.completion.request.meta;
        let deliver_now = matches!(reply.reply, FsReply::Error(_))
            || spans.is_none()
            || self
                .staging
                .as_ref()
                .is_none_or(|st| !st.replicate.enabled() || st.durability.is_none());
        if deliver_now {
            ready.push(reply);
            return;
        }
        // All checked non-None/enabled above; destructure without unwrap.
        let Some((path, spans)) = spans else {
            ready.push(reply);
            return;
        };
        let Some(st) = self.staging.as_mut() else {
            ready.push(reply);
            return;
        };
        let Some(spec) = st.durability.as_ref() else {
            ready.push(reply);
            return;
        };
        let mode = spec.resolve(meta.job, meta.user, &path);
        if !mode.replicates() {
            ready.push(reply);
            return;
        }
        for (stripe, bytes) in &spans {
            st.replicate.note_write(path.clone(), *stripe, *bytes, mode);
        }
        if mode.defers_ack() {
            // `sync`: the client must never observe a success the replica
            // tier could still lose — park the ack until every replica of
            // the stripes this write dirtied lands.
            let keys = spans.iter().map(|(s, _)| (path.clone(), *s)).collect();
            st.replicate.record_sync_deferred();
            st.pending_sync_acks.push((reply, keys));
        } else {
            ready.push(reply);
        }
        // Give the engine the fresh copy work immediately so it competes in
        // this same poll.
        self.admit_class(TrafficClass::Replicate, now_ns);
    }

    /// The evicted extents a foreground operation's byte range touches, as
    /// restore targets (`pin_dirty` for writes — the restore must pin
    /// against the evictor until the write lands; clean for reads). Empty
    /// when staging is disabled or every target extent is resident.
    ///
    /// Only *offset-based* operations (`ReadAt`/`WriteAt`) are eligible:
    /// parking a cursor-based `Read`/`Write` would let a later request on
    /// the same descriptor execute first and move the cursor out from under
    /// the parked one. Cursor I/O of evicted data instead takes the
    /// synchronous fallback inside [`ServerCore::execute`], which preserves
    /// per-descriptor order.
    fn restore_targets_for(&self, op: &FsOp) -> Vec<RestoreTarget> {
        if self.staging.is_none() {
            return Vec::new();
        }
        // O(servers) early-out: with nothing evicted anywhere — the common
        // all-resident case on the hot dispatch path — skip the per-request
        // path/layout/residency work entirely.
        if (0..self.fs.server_count()).all(|s| self.fs.evicted_count_on(s) == 0) {
            return Vec::new();
        }
        let (path, offset, len, pin_dirty) = match op {
            FsOp::WriteAt { path, offset, data } => {
                (path.clone(), *offset, data.len() as u64, true)
            }
            FsOp::ReadAt { path, offset, len } => (path.clone(), *offset, *len, false),
            _ => return Vec::new(),
        };
        if len == 0 {
            return Vec::new();
        }
        let Ok(path) = themis_fs::path::normalize(&path) else {
            return Vec::new();
        };
        let Ok(layout) = self.fs.layout_of(&path) else {
            return Vec::new();
        };
        // Reads are clamped at EOF (like the read itself), bounding the
        // stripe walk for oversized request lengths.
        let len = if pin_dirty {
            len
        } else {
            let Ok(stat) = self.fs.stat(&path) else {
                return Vec::new();
            };
            if offset >= stat.size {
                return Vec::new();
            }
            len.min(stat.size - offset)
        };
        let stripe_size = layout.config.stripe_size.max(1);
        // Saturating end: a client-controlled WriteAt near u64::MAX must
        // not overflow the stripe arithmetic (the write itself will fail
        // downstream; the pre-check must stay panic-free). `len >= 1` here.
        let stripes = offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size;
        let mut targets = Vec::new();
        // Evicted state lives on the shard each stripe hashes to; collect
        // each involved shard's evicted set once.
        let mut shards: Vec<usize> = stripes
            .clone()
            .filter_map(|s| layout.server_for_stripe(s).map(|id| id.0))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        for shard in shards {
            for (p, stripe, bytes) in self.fs.evicted_extents_on(shard, Some(&path)) {
                if stripes.contains(&stripe)
                    && layout.server_for_stripe(stripe).map(|id| id.0) == Some(shard)
                {
                    targets.push(RestoreTarget {
                        shard,
                        path: p,
                        stripe,
                        bytes,
                        pin_dirty,
                    });
                }
            }
        }
        targets
    }

    /// The `(shard, path, stripe)` extent keys an offset-based foreground
    /// operation targets — resident or evicted. These order foreground
    /// execution against parked operations: a later op overlapping any key
    /// an earlier parked op targets must wait behind it (admission order)
    /// even when its own extents are all resident. Empty for non-offset ops
    /// (cursor I/O keeps per-descriptor order by never parking) and when
    /// staging is disabled.
    fn target_extent_keys(&self, op: &FsOp) -> std::collections::HashSet<(usize, String, u64)> {
        let mut keys = std::collections::HashSet::new();
        if self.staging.is_none() {
            return keys;
        }
        let (path, offset, len, is_write) = match op {
            FsOp::WriteAt { path, offset, data } => {
                (path.clone(), *offset, data.len() as u64, true)
            }
            FsOp::ReadAt { path, offset, len } => (path.clone(), *offset, *len, false),
            _ => return keys,
        };
        if len == 0 {
            return keys;
        }
        let Ok(path) = themis_fs::path::normalize(&path) else {
            return keys;
        };
        let Ok(layout) = self.fs.layout_of(&path) else {
            return keys;
        };
        // Reads are clamped at EOF, like `restore_targets_for`.
        let len = if is_write {
            len
        } else {
            let Ok(stat) = self.fs.stat(&path) else {
                return keys;
            };
            if offset >= stat.size {
                return keys;
            }
            len.min(stat.size - offset)
        };
        let stripe_size = layout.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        for stripe in offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size {
            if let Some(id) = layout.server_for_stripe(stripe) {
                keys.insert((id.0, path.clone(), stripe));
            }
        }
        keys
    }

    /// Parks a foreground request behind policy-admitted restores when its
    /// target extents are evicted. Returns whether the request was parked
    /// (the caller must not execute it).
    fn park_if_needs_restore(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: &FsOp,
        now_ns: u64,
    ) -> bool {
        let targets = self.restore_targets_for(op);
        if targets.is_empty() {
            return false;
        }
        // Conflict tracking covers the op's *full* extent range, not just
        // the evicted keys it queues restores for: a stripe of this op that
        // is resident today is still written when the op finally executes,
        // so a later op touching it must order behind this one.
        let mut all_keys = self.target_extent_keys(op);
        let Some(st) = self.staging.as_mut() else {
            return false;
        };
        let mut keys = std::collections::HashSet::new();
        for target in targets {
            keys.insert(target.key());
            st.restore.request(target);
        }
        all_keys.extend(keys.iter().cloned());
        st.parked_ops.push(ParkedOp {
            request_id,
            request: *request,
            op: op.clone(),
            parked_at_ns: now_ns,
            all_keys,
            keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        // Give the engine the new restore work immediately so it competes in
        // this same poll.
        self.admit_class(TrafficClass::Restore, now_ns);
        true
    }

    /// Parks a foreground request behind *earlier* parked operations whose
    /// target extents overlap its own, even when every extent it touches is
    /// resident — the other half of the admission-order guarantee
    /// ([`ParkedOp::all_keys`]): without it, a later write needing no
    /// restore executes immediately, and the earlier parked write — which
    /// landed in the queue first but is still waiting on its restores —
    /// executes *after* it and silently clobbers its bytes. The blocked op
    /// queues no restores of its own; it wakes (strictly after the ops it
    /// is ordered behind) in the same restore-landing pass that releases
    /// them. Returns whether the request was parked.
    fn park_if_overlaps_parked(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: &FsOp,
        now_ns: u64,
    ) -> bool {
        if self
            .staging
            .as_ref()
            .is_none_or(|st| st.parked_ops.is_empty())
        {
            return false;
        }
        let keys = self.target_extent_keys(op);
        if keys.is_empty() {
            return false;
        }
        let Some(st) = self.staging.as_mut() else {
            return false;
        };
        if !st
            .parked_ops
            .iter()
            .any(|p| p.all_keys.iter().any(|k| keys.contains(k)))
        {
            return false;
        }
        st.parked_ops.push(ParkedOp {
            request_id,
            request: *request,
            op: op.clone(),
            parked_at_ns: now_ns,
            keys: std::collections::HashSet::new(),
            all_keys: keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        true
    }

    /// Executes a class request the engine released. The burst-buffer
    /// device is charged the slot the engine granted — what keeps each class
    /// bounded by its foreground:class weight — and the tier on the other
    /// side of the transfer is charged at its own speed; the request lands
    /// (in a later [`ServerCore::poll`], see [`ServerCore::land`]) when
    /// every transfer has finished:
    ///
    /// * drain — the slot reads the extent snapshot, and the capacity tier
    ///   write is sequenced after it;
    /// * restore, scrub — the capacity-tier read runs in parallel with the
    ///   slot;
    /// * rebalance — the capacity tier is charged the verified source read
    ///   followed by the replica writes, one per copy the plan places;
    /// * replicate — the slot reads the source, and the replica-tier write
    ///   is sequenced after it. The copy's bytes are fetched at landing, so
    ///   a re-dirtied extent replicates its latest contents.
    fn execute_class(&mut self, class: TrafficClass, request: &IoRequest, now_ns: u64) {
        let (_, burst_finish) = self.device.dispatch(request, now_ns);
        let server = self.server_index;
        let seq = request.seq;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let meta = class.meta(server);
        let (finish_ns, generation) = match class {
            TrafficClass::Drain => {
                let Some(d) = st.pipeline.inflight(seq) else {
                    return;
                };
                // Snapshot at service time — the extent may have been
                // overwritten (or drained and unlinked) since admission.
                let Some((data, generation)) =
                    self.fs.snapshot_extent_on(server, &d.path, d.stripe)
                else {
                    // Nothing dirty any more (unlinked or already clean): the
                    // drain is a no-op.
                    st.pipeline.complete(seq);
                    return;
                };
                // Delete-wins: a peer's unlink or truncate can land between
                // the snapshot above and this write-back; the guarded write
                // re-probes afterwards so the shared tier never keeps a
                // stale copy. The probe checks *size*, not bare existence —
                // a truncated path still exists, but its size drops below
                // the drained stripe's start, which is how the probe tells
                // "this extent can no longer legitimately exist" for both
                // races.
                let path = d.path.clone();
                let stripe = d.stripe;
                let stripe_start = stripe
                    * self
                        .fs
                        .layout_of(&path)
                        .map(|l| l.config.stripe_size.max(1))
                        .unwrap_or(1);
                let kept = write_back_guarded(st.backing.as_ref(), &path, stripe, &data, || {
                    self.fs.stat(&path).is_ok_and(|s| s.size > stripe_start)
                });
                if !kept {
                    st.pipeline.complete(seq);
                    return;
                }
                // The write-back recomputed the extent's checksum, so a
                // previously quarantined copy is sound again.
                st.scrub.unquarantine(&path, stripe);
                let write =
                    IoRequest::new(seq, meta, OpKind::Write, data.len() as u64, burst_finish);
                (
                    st.backing_device.dispatch(&write, burst_finish).1,
                    generation,
                )
            }
            TrafficClass::Restore | TrafficClass::Scrub => {
                let bytes = match class {
                    TrafficClass::Restore => st.restore.inflight(seq).map(|t| t.bytes),
                    _ => st.scrub.inflight(seq).map(|t| t.bytes),
                };
                let Some(bytes) = bytes else {
                    return;
                };
                let read = IoRequest::new(seq, meta, OpKind::Read, bytes.max(1), now_ns);
                let (_, backing_finish) = st.backing_device.dispatch(&read, now_ns);
                (burst_finish.max(backing_finish), 0)
            }
            TrafficClass::Rebalance => {
                let Some(plan) = st.rebalance.inflight(seq) else {
                    return;
                };
                let bytes = plan.bytes.max(1);
                let copies = plan.copy_to.len().max(1) as u64;
                let read = IoRequest::new(seq, meta, OpKind::Read, bytes, now_ns);
                let (_, read_finish) = st.backing_device.dispatch(&read, now_ns);
                let write = IoRequest::new(seq, meta, OpKind::Write, bytes * copies, read_finish);
                let (_, write_finish) = st.backing_device.dispatch(&write, read_finish);
                (burst_finish.max(write_finish), 0)
            }
            TrafficClass::Replicate => {
                let Some(target) = st.replicate.inflight(seq) else {
                    return;
                };
                let write =
                    IoRequest::new(seq, meta, OpKind::Write, target.bytes.max(1), burst_finish);
                (st.replica_device.dispatch(&write, burst_finish).1, 0)
            }
        };
        st.landings
            .push(Reverse((finish_ns, class, seq, generation)));
    }

    /// Executes one file system operation (the data path of §4.3). With
    /// staging enabled, foreground I/O never observes staged-out data as
    /// zeros or errors: operations targeting evicted extents are normally
    /// parked behind policy-admitted restores before execution
    /// ([`ServerCore::park_if_needs_restore`]), so by the time this runs the
    /// extents are resident. The read-through fetcher and the synchronous
    /// restore below remain as the fallback for the cross-server race —
    /// a peer evicting a shared-shard extent after the parking pre-check.
    fn execute(&mut self, op: &FsOp, now_ns: u64) -> FsReply {
        match self.try_execute(op, now_ns) {
            Ok(reply) => reply,
            Err(FsError::NotResident(path)) if self.staging.is_some() => {
                let targets = self.write_target_stripes(op);
                let shards = 0..self.fs.server_count();
                self.restore_extents(shards, &path, now_ns, targets.as_ref());
                match self.try_execute(op, now_ns) {
                    Ok(reply) => reply,
                    Err(e) => FsReply::Error(e.to_string()),
                }
            }
            Err(e) => FsReply::Error(e.to_string()),
        }
    }

    /// The stripes a write operation targets (`None` for non-writes) — the
    /// extents that must be pinned dirty by a restore-for-write.
    fn write_target_stripes(&self, op: &FsOp) -> Option<std::collections::HashSet<u64>> {
        let (path, offset, len) = match op {
            FsOp::WriteAt { path, offset, data } => (path.clone(), *offset, data.len() as u64),
            FsOp::Write { fd, data } => {
                let path = self.fs.fd_path(*fd).ok()?;
                // lseek(0, CUR) reads the cursor without moving it.
                let cursor = self.fs.lseek(*fd, 0, Whence::Cur).ok()?;
                (path, cursor, data.len() as u64)
            }
            _ => return None,
        };
        if len == 0 {
            return Some(std::collections::HashSet::new());
        }
        let stripe_size = self.fs.layout_of(&path).ok()?.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        Some((offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size).collect())
    }

    /// Reads up to `len` bytes, serving evicted extents straight from the
    /// capacity tier (read-through) when staging is enabled. The fetched
    /// bytes are charged to the capacity-tier device's timeline (occupying
    /// its workers); as a modelling simplification the *reply's* completion
    /// time still comes from the burst-buffer dispatch alone, so per-request
    /// latency of staged reads is optimistic — capacity-tier congestion
    /// shows up in the backing timeline's utilisation, not in reply times.
    fn read_through(
        &mut self,
        target: ReadTarget<'_>,
        len: u64,
        now_ns: u64,
    ) -> Result<Vec<u8>, FsError> {
        let Some(st) = self.staging.as_mut() else {
            return match target {
                ReadTarget::Fd(fd) => self.fs.read(fd, len),
                ReadTarget::At(path, offset) => self.fs.read_at(path, offset, len),
            };
        };
        let backing = Arc::clone(&st.backing);
        let fetched = std::cell::Cell::new(0u64);
        let fetch = |p: &str, stripe: u64| {
            // Verified fetch: serving an unverified tier copy would hand the
            // client corrupt bytes; refusing surfaces NotResident instead.
            let data = themis_stage::verified_read_back(backing.as_ref(), p, stripe);
            if let Some(d) = &data {
                fetched.set(fetched.get() + d.len() as u64);
            }
            data
        };
        let result = match target {
            ReadTarget::Fd(fd) => self.fs.read_with(fd, len, &fetch),
            ReadTarget::At(path, offset) => self.fs.read_at_with(path, offset, len, &fetch),
        };
        if fetched.get() > 0 {
            let read = IoRequest::new(0, st.pipeline.meta(), OpKind::Read, fetched.get(), now_ns);
            st.backing_device.dispatch(&read, now_ns);
        }
        // Residency accounting: a read that pulled anything through the
        // capacity tier is a miss op (the fetched bytes count as misses, the
        // remainder of the returned payload was resident); a read served
        // entirely from the shard is a hit op.
        if let Ok(data) = &result {
            let fetched = fetched.get();
            if fetched > 0 {
                self.telemetry.residency_miss_ops.inc();
                self.telemetry.residency_miss_bytes.add(fetched);
                let resident = (data.len() as u64).saturating_sub(fetched);
                if resident > 0 {
                    self.telemetry.residency_hit_bytes.add(resident);
                }
            } else {
                self.telemetry.residency_hit_ops.inc();
                self.telemetry.residency_hit_bytes.add(data.len() as u64);
            }
        }
        result
    }

    fn try_execute(&mut self, op: &FsOp, now_ns: u64) -> Result<FsReply, FsError> {
        match op {
            FsOp::Open {
                path,
                create,
                truncate,
                append,
            } => {
                let fd = self.fs.open(
                    path,
                    OpenFlags {
                        create: *create,
                        truncate: *truncate,
                        append: *append,
                    },
                    now_ns,
                )?;
                if *truncate {
                    self.drop_backing_copies(path);
                }
                Ok(FsReply::Fd(fd))
            }
            FsOp::Close { fd } => self.fs.close(*fd).map(|_| FsReply::Ok),
            FsOp::Write { fd, data } => self.fs.write(*fd, data, now_ns).map(FsReply::Count),
            FsOp::WriteAt { path, offset, data } => self
                .fs
                .write_at(path, *offset, data, now_ns)
                .map(FsReply::Count),
            FsOp::Read { fd, len } => self
                .read_through(ReadTarget::Fd(*fd), *len, now_ns)
                .map(FsReply::Data),
            FsOp::ReadAt { path, offset, len } => self
                .read_through(ReadTarget::At(path, *offset), *len, now_ns)
                .map(FsReply::Data),
            FsOp::Seek { fd, offset, whence } => {
                let whence = match whence {
                    0 => Whence::Set,
                    1 => Whence::Cur,
                    _ => Whence::End,
                };
                self.fs.lseek(*fd, *offset, whence).map(FsReply::Count)
            }
            FsOp::Stat { path } => self.fs.stat(path).map(FsReply::Stat),
            FsOp::Mkdir { path } => self.fs.mkdir_all(path, now_ns).map(|_| FsReply::Ok),
            FsOp::Readdir { path } => self.fs.readdir(path).map(FsReply::Entries),
            FsOp::Unlink { path } => {
                self.fs.unlink(path, now_ns)?;
                self.drop_backing_copies(path);
                Ok(FsReply::Ok)
            }
            FsOp::CreateStriped { path, stripe } => self
                .fs
                .create_striped(path, *stripe, now_ns)
                .map(|_| FsReply::Ok),
        }
    }

    /// Drops the capacity tier's copies of a path that was unlinked or
    /// truncated, so stale snapshots cannot be staged back in — and lifts
    /// any scrub quarantine on them (the damaged copies are gone).
    fn drop_backing_copies(&mut self, path: &str) {
        if let (Some(st), Ok(p)) = (self.staging.as_mut(), themis_fs::path::normalize(path)) {
            st.backing.remove_path(&p);
            // Delete wins on the replica tier too: a stale durability copy
            // of an unlinked path must not outlive the data.
            st.replica.remove_path(&p);
            st.scrub.unquarantine_path(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::entity::JobId;

    fn server(policy: Policy) -> ServerCore {
        let fs = BurstBufferFs::new(1);
        ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Themis(policy),
                ..ServerConfig::default()
            },
        )
    }

    fn meta(job: u64, nodes: u32) -> JobMeta {
        JobMeta::new(job, job as u32, 1u32, nodes)
    }

    #[test]
    fn submit_poll_executes_against_fs() {
        let mut s = server(Policy::size_fair());
        let m = meta(1, 4);
        s.heartbeat(m, 0);
        s.submit(
            1,
            m,
            FsOp::Open {
                path: "/out".into(),
                create: true,
                truncate: true,
                append: false,
            },
            0,
        );
        let replies = s.poll(0);
        assert_eq!(replies.len(), 1);
        let fd = match replies[0].reply {
            FsReply::Fd(fd) => fd,
            ref other => panic!("unexpected reply {other:?}"),
        };
        s.submit(
            2,
            m,
            FsOp::Write {
                fd,
                data: vec![7u8; 4096],
            },
            1_000,
        );
        s.submit(3, m, FsOp::Read { fd, len: 4096 }, 1_000);
        s.submit(
            4,
            m,
            FsOp::Seek {
                fd,
                offset: 0,
                whence: 0,
            },
            1_000,
        );
        s.submit(5, m, FsOp::Read { fd, len: 4096 }, 1_000);
        let mut replies = s.poll(1_000);
        // Workers may still be busy with earlier requests at t=1 µs; keep
        // polling as (virtual) time advances until all four complete.
        let mut t = 1_000;
        while replies.len() < 4 {
            t += 10_000;
            replies.extend(s.poll(t));
            assert!(t < 1_000_000_000, "requests never completed");
        }
        assert_eq!(replies.len(), 4);
        match &replies[3].reply {
            FsReply::Data(d) => assert_eq!(d, &vec![7u8; 4096]),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(s.completions(), 5);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn errors_travel_back_as_replies() {
        let mut s = server(Policy::job_fair());
        let m = meta(1, 1);
        s.submit(
            9,
            m,
            FsOp::Stat {
                path: "/missing".into(),
            },
            0,
        );
        let replies = s.poll(0);
        assert!(matches!(replies[0].reply, FsReply::Error(_)));
    }

    #[test]
    fn size_fair_shares_follow_heartbeats() {
        let mut s = server(Policy::size_fair());
        s.heartbeat(meta(1, 3), 0);
        s.heartbeat(meta(2, 1), 0);
        let shares = s.shares();
        assert!((shares.share(JobId(1)) - 0.75).abs() < 1e-9);
        s.client_bye(meta(1, 3), 10);
        assert!((s.shares().share(JobId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expire_marks_silent_jobs_inactive() {
        let fs = BurstBufferFs::new(1);
        let mut s = ServerCore::new(
            0,
            fs,
            ServerConfig {
                heartbeat_timeout_ns: 1_000,
                ..ServerConfig::default()
            },
        );
        s.heartbeat(meta(1, 2), 0);
        s.heartbeat(meta(2, 2), 0);
        // Job 2 keeps beating, job 1 goes silent.
        s.heartbeat(meta(2, 2), 10_000);
        s.expire_jobs(10_000);
        let shares = s.shares();
        assert_eq!(shares.share(JobId(1)), 0.0);
        assert!((shares.share(JobId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_sync_merges_peer_views() {
        let mut a = server(Policy::size_fair());
        let mut b = server(Policy::size_fair());
        a.heartbeat(meta(1, 16), 0);
        a.heartbeat(meta(2, 8), 0);
        b.heartbeat(meta(1, 16), 0);
        b.heartbeat(meta(3, 8), 0);
        assert!((a.shares().share(JobId(1)) - 2.0 / 3.0).abs() < 1e-9);
        assert!(a.sync_due(a.lambda_interval_ns()));
        let tb = b.local_table();
        let ta = a.local_table();
        a.absorb_peer_tables([&tb], 500_000_000);
        b.absorb_peer_tables([&ta], 500_000_000);
        assert!((a.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert!((b.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert!(!a.sync_due(600_000_000));
    }

    #[test]
    fn policy_change_applies_immediately() {
        let mut s = server(Policy::size_fair());
        s.heartbeat(meta(1, 4), 0);
        s.heartbeat(meta(2, 1), 0);
        assert!((s.shares().share(JobId(1)) - 0.8).abs() < 1e-9);
        s.set_policy(Policy::job_fair()).unwrap();
        assert!((s.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert_eq!(s.policy(), &Policy::job_fair());
    }

    #[test]
    fn set_policy_rejected_on_fixed_algorithm_engines() {
        for algorithm in [
            Algorithm::Fifo,
            Algorithm::Gift(themis_baselines::GiftConfig::default()),
            Algorithm::Tbf(themis_baselines::TbfConfig::default()),
        ] {
            let fs = BurstBufferFs::new(1);
            let mut s = ServerCore::new(
                0,
                fs,
                ServerConfig {
                    algorithm: algorithm.clone(),
                    ..ServerConfig::default()
                },
            );
            let before = s.policy().clone();
            let err = s.set_policy(Policy::size_fair()).unwrap_err();
            assert!(
                matches!(err, PolicyError::UnsupportedEngine(_)),
                "{algorithm:?}: {err}"
            );
            // Nothing changed: epoch still 0, previous policy still in force.
            assert_eq!(s.policy_epoch(), 0);
            assert_eq!(s.policy(), &before);
        }
    }

    fn staged_server(staging: StagingConfig) -> ServerCore {
        let fs = BurstBufferFs::new(1);
        ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Themis(Policy::size_fair()),
                staging: Some(staging),
                ..ServerConfig::default()
            },
        )
    }

    fn fast_staging() -> StagingConfig {
        StagingConfig {
            // A fast backing tier so tests drain in microseconds of virtual
            // time.
            backing_device: DeviceConfig::default(),
            drain: themis_stage::DrainConfig {
                high_watermark_bytes: 1 << 30,
                low_watermark_bytes: 1 << 29,
                ..themis_stage::DrainConfig::default()
            },
            sharding: None,
            durability: None,
        }
    }

    /// Polls until the staging pipeline reports clean, returning the virtual
    /// time reached.
    fn poll_until_clean(s: &mut ServerCore, mut t: u64) -> u64 {
        loop {
            s.poll(t);
            let status = s.drain_status_snapshot().expect("staging enabled");
            if status.is_clean() {
                return t;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "drain never completed");
        }
    }

    fn write_file(s: &mut ServerCore, path: &str, bytes: usize, t: u64) {
        s.submit(
            9000,
            meta(1, 1),
            FsOp::Open {
                path: path.into(),
                create: true,
                truncate: false,
                append: false,
            },
            t,
        );
        let fd = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 9000) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        };
        s.submit(
            9001,
            meta(1, 1),
            FsOp::Write {
                fd,
                data: vec![0xAB; bytes],
            },
            t,
        );
        let mut t = t;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 9001) {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "write never completed");
        }
    }

    #[test]
    fn background_drain_copies_dirty_extents_to_backing() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/ckpt", 3 << 20, 0);
        assert!(s.drain_status_snapshot().unwrap().dirty_bytes >= (3 << 20) as u64);
        let t = poll_until_clean(&mut s, 1_000_000);
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.dirty_bytes, 0);
        assert_eq!(status.backing_bytes, (3 << 20) as u64);
        assert!(status.drained_ops >= 3, "stripes drained individually");
        // The data stayed resident (no watermark pressure) and readable.
        assert_eq!(s.fs().read_at("/ckpt", 0, 16).unwrap(), vec![0xAB; 16]);
        assert!(t > 0);
    }

    #[test]
    fn flush_of_clean_file_is_noop_ack() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/clean", 1 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        // File fully drained: the flush acknowledges immediately, without
        // queueing any drain work.
        let queued_before = s.queued();
        s.flush(42, meta(1, 1), "/clean", 10_000_000);
        let replies = s.take_stage_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].request_id, 42);
        match replies[0].reply {
            StageReply::Flushed { backing_bytes } => {
                assert_eq!(backing_bytes, (1 << 20) as u64)
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.queued(), queued_before);
        // A flush of a path with no extents at all is also a no-op ack.
        s.flush(43, meta(1, 1), "/never-written", 10_000_000);
        let replies = s.take_stage_replies();
        assert!(
            matches!(replies[0].reply, StageReply::Flushed { backing_bytes: 0 }),
            "{:?}",
            replies[0].reply
        );
    }

    #[test]
    fn flush_of_dirty_file_acks_after_drain() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/dirty", 2 << 20, 0);
        s.flush(77, meta(1, 1), "/dirty", 1_000_000);
        assert!(s.take_stage_replies().is_empty(), "ack must wait for drain");
        let mut t = 1_000_000;
        let replies = loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if !replies.is_empty() {
                break replies;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "flush never acknowledged");
        };
        assert_eq!(replies[0].request_id, 77);
        assert!(matches!(
            replies[0].reply,
            StageReply::Flushed { backing_bytes } if backing_bytes == (2 << 20) as u64
        ));
        assert_eq!(s.drain_status_snapshot().unwrap().dirty_bytes, 0);
    }

    #[test]
    fn policy_swap_mid_drain_keeps_epoch_semantics() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 4), 0);
        s.heartbeat(meta(2, 1), 0);
        write_file(&mut s, "/mid", 4 << 20, 0);
        // Kick the pipeline so drain requests are admitted and in flight.
        s.poll(1_000_000);
        let queued_before = s.queued();
        assert!(
            !s.drain_status_snapshot().unwrap().is_clean(),
            "drain should be in progress"
        );
        // Live SetPolicy mid-drain: accepted (the staged engine delegates to
        // the themis engine underneath), epoch bumps, queues — foreground and
        // drain — are preserved.
        let epoch = s.set_policy(Policy::job_fair()).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(s.policy_epoch(), 1);
        assert_eq!(s.queued(), queued_before);
        assert!((s.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        // The drain still completes under the new policy.
        poll_until_clean(&mut s, 2_000_000);
        assert_eq!(
            s.drain_status_snapshot().unwrap().backing_bytes,
            (4 << 20) as u64
        );
    }

    #[test]
    fn eviction_reclaims_clean_extents_but_never_dirty_ones() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 2 << 20;
        staging.drain.low_watermark_bytes = 1 << 20;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/big", 4 << 20, 0);
        // While everything is dirty, watermark pressure must evict nothing:
        // a dirty extent's only copy is the burst buffer.
        s.poll(1_000);
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.evicted_bytes, 0);
        assert!(status.resident_bytes >= (4 << 20) as u64);
        // Once drained, the clean extents above the watermark are reclaimed.
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        let status = s.drain_status_snapshot().unwrap();
        assert!(status.evicted_bytes > 0, "watermark eviction ran");
        // Eviction triggers above the high watermark and reclaims down to
        // the low watermark, so steady state is at or below high.
        assert!(
            status.resident_bytes <= (2 << 20) as u64,
            "resident {} above high watermark",
            status.resident_bytes
        );
        assert_eq!(status.dirty_bytes, 0);
        assert_eq!(status.backing_bytes, (4 << 20) as u64);
    }

    #[test]
    fn stage_in_restores_evicted_data_byte_for_byte() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/evicted", 3 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // An explicit stage-in queues policy-admitted restore traffic; the
        // acknowledgement is deferred until every extent has landed, and the
        // restore backlog is observable in the status meanwhile.
        s.stage_in(55, meta(1, 1), "/evicted", 70_000_000);
        assert!(
            s.take_stage_replies().is_empty(),
            "ack must wait for the queued restores"
        );
        assert_eq!(
            s.drain_status_snapshot().unwrap().pending_restore_bytes,
            (3 << 20) as u64
        );
        let mut t = 70_000_000;
        let replies = loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if !replies.is_empty() {
                break replies;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "stage-in never acknowledged");
        };
        assert_eq!(replies[0].request_id, 55);
        assert!(matches!(
            replies[0].reply,
            StageReply::StagedIn { restored_bytes } if restored_bytes == (3 << 20) as u64
        ));
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.restored_bytes, (3 << 20) as u64);
        assert_eq!(status.pending_restore_bytes, 0);
        assert!(status.restore_idle());
        // Byte-for-byte contents through the server read path (the tight
        // watermarks may re-evict immediately; the read parks and restores
        // transparently).
        s.submit(
            57,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/evicted".into(),
                offset: 0,
                len: 3 << 20,
            },
            t,
        );
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 57) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "read never completed");
        };
        assert_eq!(data, vec![0xAB; 3 << 20]);
    }

    #[test]
    fn evicted_data_is_restored_transparently_on_read() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/lazy", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // A plain read through the request path stages the extents back in
        // instead of returning zeros or failing.
        s.submit(
            500,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/lazy".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 500) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        };
        assert_eq!(data, vec![0xAB; 2 << 20]);
    }

    #[test]
    fn client_job_id_in_drain_range_is_rejected_not_dropped() {
        // A malicious/buggy client using a job id inside the reserved drain
        // range must get an error reply — never have its request mistaken
        // for drain traffic and silently dropped. Both with and without
        // staging.
        for staging in [None, Some(fast_staging())] {
            let fs = BurstBufferFs::new(1);
            let mut s = ServerCore::new(
                0,
                fs,
                ServerConfig {
                    staging,
                    ..ServerConfig::default()
                },
            );
            let evil = JobMeta::new(themis_stage::DRAIN_JOB_BASE + 1, 1u32, 1u32, 1);
            s.submit(31, evil, FsOp::Mkdir { path: "/d".into() }, 0);
            let replies = s.poll(0);
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].request_id, 31);
            assert!(
                matches!(replies[0].reply, FsReply::Error(_)),
                "{:?}",
                replies[0].reply
            );
            assert!(!s.fs().exists("/d"));
            assert_eq!(s.queued(), 0);
            // Staging messages enforce the same boundary: a reserved meta in
            // Flush/StageIn must never reach the job table (where it would
            // dilute real tenants' shares).
            s.flush(32, evil, "/d", 0);
            s.stage_in(33, evil, "/d", 0);
            let stage = s.take_stage_replies();
            assert_eq!(stage.len(), 2);
            assert!(stage
                .iter()
                .all(|r| matches!(r.reply, StageReply::Error(_))));
            assert_eq!(s.shares().share(evil.job), 0.0);
            assert!(s.local_table().get(evil.job).is_none());
        }
    }

    #[test]
    fn partial_write_to_evicted_extent_preserves_surrounding_bytes() {
        // Overwriting a few bytes of an evicted extent must merge with the
        // capacity-tier copy (restore-for-write), not lose the rest of the
        // extent — and only the written stripe comes back pinned dirty.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/part", 3 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // Overwrite 4 bytes in the middle of stripe 1.
        s.submit(
            600,
            meta(1, 1),
            FsOp::WriteAt {
                path: "/part".into(),
                offset: (1 << 20) + 100,
                data: vec![0xFF; 4],
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 600) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "write never completed");
        }
        // Only the written stripe needs re-draining: untouched stripes came
        // back clean (or stayed evicted), so dirty bytes are one stripe.
        assert_eq!(
            s.drain_status_snapshot().unwrap().dirty_bytes,
            1 << 20,
            "only the written stripe should be dirty"
        );
        // Read back the whole file: surrounding bytes intact, overwrite
        // applied.
        s.submit(
            601,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/part".into(),
                offset: 0,
                len: 3 << 20,
            },
            t,
        );
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 601) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "read never completed");
        };
        assert_eq!(data.len(), 3 << 20);
        assert!(data[..(1 << 20) + 100].iter().all(|b| *b == 0xAB));
        assert_eq!(&data[(1 << 20) + 100..(1 << 20) + 104], &[0xFF; 4]);
        assert!(data[(1 << 20) + 104..].iter().all(|b| *b == 0xAB));
    }

    #[test]
    fn cursor_io_on_evicted_data_preserves_descriptor_order() {
        // Cursor-based Read/Write never park behind restores — parking
        // would let a later same-fd request execute first and move the
        // cursor out from under the parked one. They take the synchronous
        // fallback instead, so a pipelined open→read→read sequence on a
        // fully evicted file completes in order with correct bytes.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/cursor", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        s.submit(
            700,
            meta(1, 1),
            FsOp::Open {
                path: "/cursor".into(),
                create: false,
                truncate: false,
                append: false,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let fd = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 700) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "open never completed");
        };
        // Two pipelined cursor reads covering the whole evicted file.
        s.submit(701, meta(1, 1), FsOp::Read { fd, len: 1 << 20 }, t);
        s.submit(702, meta(1, 1), FsOp::Read { fd, len: 1 << 20 }, t);
        let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
        while got.len() < 2 {
            for r in s.poll(t) {
                if r.request_id == 701 || r.request_id == 702 {
                    match &r.reply {
                        FsReply::Data(d) => got.push((r.request_id, d.clone())),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "cursor reads never completed");
        }
        // In-order completion, each read a full non-overlapping megabyte.
        assert_eq!(got[0].0, 701);
        assert_eq!(got[1].0, 702);
        assert_eq!(got[0].1, vec![0xAB; 1 << 20]);
        assert_eq!(got[1].1, vec![0xAB; 1 << 20]);
    }

    #[test]
    fn huge_offset_write_at_is_an_error_not_a_panic() {
        // With extents evicted (so the residency pre-check's early-out does
        // not fire), a client-controlled WriteAt near u64::MAX must travel
        // the parking pre-check's saturating stripe arithmetic and come back
        // as a clean error reply — never panic the server.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/edge", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert!(s.fs().evicted_count_on(0) > 0, "extents must be evicted");
        s.submit(
            910,
            meta(1, 1),
            FsOp::WriteAt {
                path: "/edge".into(),
                offset: u64::MAX - 1,
                data: vec![9u8; 3],
            },
            60_000_000,
        );
        let mut t = 60_000_000;
        loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 910) {
                assert!(matches!(r.reply, FsReply::Error(_)), "{:?}", r.reply);
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "write never answered");
        }
    }

    #[test]
    fn unlink_during_drain_leaves_no_stale_tier_copy() {
        // Delete-wins across servers: server 1 unlinks a path while server
        // 0's drain of it is anywhere in flight. Whatever interleaving the
        // polls produce, quiescence must leave the shared capacity tier with
        // zero bytes for the path. (The exact snapshot→unlink→write_back
        // window is covered deterministically by the stage crate's
        // `write_back_guarded` test; this exercises the wiring end to end.)
        let fs = BurstBufferFs::new(2);
        let staging = fast_staging();
        let backing: Arc<dyn BackingStore> = Arc::new(CapacityTier::new(staging.backing_device));
        let config = |_| ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            staging: Some(fast_staging()),
            ..ServerConfig::default()
        };
        let mut s0 = ServerCore::with_backing(0, fs.clone(), config(0), Some(backing.clone()));
        let mut s1 = ServerCore::with_backing(1, fs.clone(), config(1), Some(backing.clone()));
        s0.heartbeat(meta(1, 1), 0);
        s1.heartbeat(meta(1, 1), 0);
        write_file(&mut s0, "/doomed", 2 << 20, 0);
        // Kick the drain pipeline so drains are admitted/in flight on s0.
        s0.poll(1_000_000);
        assert!(!s0.drain_status_snapshot().unwrap().is_clean());
        // Peer unlinks mid-drain through its own request path.
        s1.submit(
            70,
            meta(1, 1),
            FsOp::Unlink {
                path: "/doomed".into(),
            },
            1_000_000,
        );
        let replies = s1.poll(1_000_000);
        assert!(
            matches!(replies[0].reply, FsReply::Ok),
            "{:?}",
            replies[0].reply
        );
        // Drive both servers to quiescence.
        let mut t = 1_000_000;
        loop {
            s0.poll(t);
            s1.poll(t);
            let clean = s0.drain_status_snapshot().unwrap().is_clean()
                && s1.drain_status_snapshot().unwrap().is_clean();
            if clean {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "drain never quiesced after unlink");
        }
        assert_eq!(
            backing.bytes_for("/doomed"),
            0,
            "stale copy leaked into the shared capacity tier"
        );
        assert!(!fs.exists("/doomed"));
    }

    #[test]
    fn drain_status_without_staging_is_an_error() {
        let mut s = server(Policy::size_fair());
        assert!(s.drain_status_snapshot().is_none());
        assert!(s.class_totals(TrafficClass::Drain).is_none());
        s.drain_status(1);
        let replies = s.take_stage_replies();
        assert!(matches!(replies[0].reply, StageReply::Error(_)));
        s.flush(2, meta(1, 1), "/x", 0);
        let replies = s.take_stage_replies();
        assert!(matches!(replies[0].reply, StageReply::Error(_)));
    }

    /// Satellite (regression): status snapshots cut *mid-restore* are
    /// internally consistent — the derived backlog `requested - completed`
    /// never underflows (the subtraction itself would panic in debug if a
    /// snapshot ever showed completed ahead of requested), and the restored
    /// totals never exceed what was requested.
    #[test]
    fn mid_restore_status_snapshots_never_overcount_completed() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/mid", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // A read of the evicted file parks behind policy-admitted restores.
        s.submit(
            700,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/mid".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let mut saw_backlog = false;
        loop {
            let done = s.poll(t).iter().any(|r| r.request_id == 700);
            // Cut a status snapshot at every step of the restore, including
            // between admission and completion of individual extents.
            let status = s.drain_status_snapshot().unwrap();
            saw_backlog |= status.pending_restore_bytes > 0;
            assert!(
                status.restored_bytes <= (2 << 20) + status.pending_restore_bytes,
                "restored {} beyond requested work (backlog {})",
                status.restored_bytes,
                status.pending_restore_bytes
            );
            if done {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        assert!(saw_backlog, "never observed a mid-restore backlog");
        // The park/wake accounting closed out: every park woke exactly once,
        // and each wake recorded a park duration sample.
        let snap = s.metrics_registry().snapshot(t);
        let parked = snap.counter(0, 0, "foreground", "parked_ops");
        let wakes = snap.counter(0, 0, "foreground", "wakes");
        assert!(parked >= 1);
        assert_eq!(parked, wakes);
        assert_eq!(snap.histogram(0, 0, "foreground", "park_ns").count, wakes);
        assert!(s.drain_status_snapshot().unwrap().restore_idle());
    }

    #[test]
    fn metrics_snapshot_covers_tenants_classes_and_gauges() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/obs", 3 << 20, 0);
        let t = poll_until_clean(&mut s, 1_000_000);
        let status = s.drain_status_snapshot().unwrap();
        s.metrics_snapshot(77, t);
        let replies = s.take_stage_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].request_id, 77);
        let StageReply::Metrics(snap) = &replies[0].reply else {
            panic!("unexpected reply {:?}", replies[0].reply);
        };
        assert_eq!(snap.taken_ns, t);
        // Per-tenant completion series match the server's own accounting.
        let ops = snap.counter(0, 1, "foreground", "ops_completed");
        assert_eq!(ops, s.completions());
        assert!(snap.counter(0, 1, "foreground", "bytes_completed") >= (3 << 20) as u64);
        assert_eq!(
            snap.histogram(0, 1, "foreground", "queue_delay_ns").count,
            ops
        );
        assert_eq!(snap.histogram(0, 1, "foreground", "service_ns").count, ops);
        assert_eq!(snap.tenants().into_iter().collect::<Vec<_>>(), vec![1]);
        // Class lanes carry the drain's admission and completion history —
        // and they agree with the registry-view DrainStatus.
        assert_eq!(
            snap.counter(0, 0, "drain", "drained_bytes"),
            status.drained_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "drain", "drained_ops"),
            status.drained_ops
        );
        assert!(snap.counter(0, 0, "drain", "admitted_bytes") >= status.drained_bytes);
        // Gauges were refreshed at the cut.
        assert_eq!(
            snap.gauge(0, 0, "fs", "backing_bytes") as u64,
            status.backing_bytes
        );
        assert_eq!(snap.gauge(0, 0, "fs", "dirty_bytes"), 0);
        // The snapshot renders to offline-safe flat JSON.
        let json = snap.to_json();
        assert!(json.contains("\"srv0.t1.foreground.ops_completed\""));
        assert!(json.contains("\"srv0.t0.drain.drained_bytes\""));
    }

    #[test]
    fn trace_dump_merges_engine_and_core_decisions() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/trace", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        // Bump the policy epoch so decisions after the swap are stamped.
        let epoch = s.set_policy(Policy::job_fair()).unwrap();
        assert_eq!(epoch, 1);
        // A read of evicted data: engine admissions/selections plus a core
        // park and wake.
        s.submit(
            800,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/trace".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 800) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        s.trace_dump(88, 10_000);
        let replies = s.take_stage_replies();
        assert_eq!(replies[0].request_id, 88);
        let StageReply::Trace(dump) = &replies[0].reply else {
            panic!("unexpected reply {:?}", replies[0].reply);
        };
        if themis_telemetry::DecisionTrace::enabled() {
            let kinds: Vec<TraceKind> = dump.events.iter().map(|e| e.kind).collect();
            assert!(kinds.contains(&TraceKind::Park), "no park event");
            assert!(kinds.contains(&TraceKind::Wake), "no wake event");
            assert!(kinds.contains(&TraceKind::Admit), "no engine admission");
            // Merged stream is ordered by decision time, and post-swap
            // decisions carry the new epoch.
            assert!(dump.events.windows(2).all(|w| w[0].now_ns <= w[1].now_ns));
            assert!(dump.events.iter().any(|e| e.epoch == 1));
            assert!(dump.render().contains("park"));
        } else {
            assert!(dump.events.is_empty());
            assert_eq!(dump.dropped, 0);
        }
    }

    /// Satellite (pinning): `trace_dump_snapshot` merges the engine ring
    /// with the core ring but still honours `max` — the newest events win,
    /// the merged stream stays oldest-first, and `dropped` accounts exactly
    /// for everything not returned (each ring's own overwrites plus the
    /// merge-step cut). The identity checked at the end holds regardless of
    /// how the retained events split across the two rings.
    #[test]
    fn trace_dump_truncation_keeps_newest_events_with_exact_drop_accounting() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/cut", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        // A read of evicted data populates both rings: engine admissions
        // and selections, core parks and wakes.
        s.submit(
            810,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/cut".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 810) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        let full = s.trace_dump_snapshot(10_000);
        if !themis_telemetry::DecisionTrace::enabled() {
            assert!(full.events.is_empty());
            assert_eq!(full.dropped, 0);
            return;
        }
        assert!(full.events.len() > 4, "too few events to exercise the cut");
        let small = s.trace_dump_snapshot(4);
        // Never more than max, even though two rings each returned up to
        // max before the merge.
        assert_eq!(small.events.len(), 4);
        assert!(small.events.windows(2).all(|w| w[0].now_ns <= w[1].now_ns));
        // The survivors are the newest of the merged stream.
        let tail: Vec<u64> = full.events[full.events.len() - 4..]
            .iter()
            .map(|e| e.now_ns)
            .collect();
        let kept: Vec<u64> = small.events.iter().map(|e| e.now_ns).collect();
        assert_eq!(kept, tail);
        // Exact accounting: both dumps cover the same recorded set, so
        // returned + dropped must agree between them.
        assert_eq!(
            small.dropped,
            full.dropped + (full.events.len() as u64 - 4),
            "merge cut not reflected in the dropped count"
        );
    }

    /// End-to-end rebalance: a server whose staging drains into a sharded
    /// capacity tier (built from its `ShardSpec`) reacts to a mid-run map
    /// change by migrating the drained extents through the Rebalance lane —
    /// checksum-verified, policy-arbitrated alongside foreground traffic —
    /// until the tier's own placement audit converges on the new map.
    #[test]
    fn reshard_migrates_drained_extents_until_placement_converges() {
        let mut staging = fast_staging();
        staging.sharding = Some(themis_stage::ShardSpec {
            // Everything lands on child 0 at first; child 1 (a genuinely
            // different device preset) idles until the reshard.
            map: "00-ff=0".into(),
            replication: 1,
            backends: vec![DeviceConfig::default(), DeviceConfig::optane_ssd()],
        });
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/shard-a", 2 << 20, 0);
        write_file(&mut s, "/shard-b", 1 << 20, 0);
        let mut t = poll_until_clean(&mut s, 1_000_000);
        let status = s.rebalance_status_snapshot().expect("staging enabled");
        assert!(status.sharded);
        assert!(status.is_converged(), "nothing to migrate before a reshard");
        assert_eq!(status.migrated_extents, 0);

        // Reshard: split the range across both children and double the
        // replication — every drained extent now owes at least one new copy.
        {
            let st = s.staging.as_ref().unwrap();
            let sharded = st.backing.as_sharded().unwrap();
            sharded
                .install_map(themis_stage::ShardMap::parse("00-7f=0,80-ff=1").unwrap(), 2)
                .unwrap();
        }
        loop {
            s.poll(t);
            if s.rebalance_status_snapshot().unwrap().is_converged() {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "rebalance never converged");
        }
        let status = s.rebalance_status_snapshot().unwrap();
        assert!(status.migrated_extents > 0, "map change moved nothing");
        assert!(status.migrated_bytes > 0);
        assert_eq!(status.failed_extents, 0);
        assert_eq!(status.pending_bytes, 0);
        assert!(status.passes_completed >= 1);
        // The tier's own audit agrees: every extent holds its full replica
        // set under the new map, with the stale copies pruned.
        let st = s.staging.as_ref().unwrap();
        let report = st.backing.as_sharded().unwrap().verify_placement();
        assert!(report.converged(), "placement audit: {report:?}");
        assert!(report.extents > 0);
    }

    #[test]
    fn fifo_server_works_through_same_interface() {
        let fs = BurstBufferFs::new(1);
        let mut s = ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Fifo,
                ..ServerConfig::default()
            },
        );
        let m = meta(5, 1);
        s.submit(1, m, FsOp::Mkdir { path: "/d".into() }, 0);
        let replies = s.poll(0);
        assert!(matches!(replies[0].reply, FsReply::Ok));
        assert!(s.fs().exists("/d"));
    }

    // ---------------------------------------------------------- durability

    use themis_core::durability::{DurabilityMode, DurabilitySpec};

    fn durable_staging(spec: DurabilitySpec) -> StagingConfig {
        let mut cfg = fast_staging();
        cfg.drain.classes = cfg
            .drain
            .classes
            .enable(themis_stage::TrafficClass::Replicate, 16);
        cfg.durability = Some(spec);
        cfg
    }

    /// Polls until the replicate pipeline reports idle, returning the final
    /// status.
    fn poll_until_replicated(s: &mut ServerCore, mut t: u64) -> ReplicateStatus {
        loop {
            s.poll(t);
            let status = s.replicate_status_snapshot().expect("staging enabled");
            if status.is_idle() {
                return status;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "replication never caught up");
        }
    }

    #[test]
    fn durable_writes_replicate_and_survive_burst_loss() {
        let mut s = staged_server(durable_staging(DurabilitySpec::new(
            DurabilityMode::LocalPlusOne,
        )));
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/ckpt", 2 << 20, 0);
        // Oracle: replication lag drains to zero at quiescence.
        let status = poll_until_replicated(&mut s, 1_000_000);
        assert!(status.enabled);
        assert_eq!(status.lag_bytes, 0);
        assert!(status.replicated_extents >= 2, "{status:?}");
        assert_eq!(status.failed_replications, 0);
        assert_eq!(status.sync_acks_deferred, 0, "local_plus_one acks early");
        // Crash-before-replicate conditioning: lose the burst tier — every
        // acked byte must be reconstructable from verified replica copies.
        let stripe_size = s.fs().layout_of("/ckpt").unwrap().config.stripe_size.max(1);
        let total = 2u64 << 20;
        let mut recovered = 0u64;
        for stripe in 0..(2u64 << 20).div_ceil(stripe_size) {
            let copy = s.replica_extent("/ckpt", stripe).expect("replica landed");
            assert!(copy.iter().all(|b| *b == 0xAB), "stripe {stripe} corrupt");
            recovered += copy.len() as u64;
        }
        assert_eq!(recovered, total);
    }

    #[test]
    fn local_only_writes_owe_no_replicas() {
        // Job 1 opts out of replication: crash-before-replicate may lose
        // exactly (and only) its bytes.
        let spec = DurabilitySpec::new(DurabilityMode::LocalPlusOne)
            .with_job(1, DurabilityMode::LocalOnly)
            .unwrap();
        let mut s = staged_server(durable_staging(spec));
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/scratch", 1 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        let status = s.replicate_status_snapshot().unwrap();
        assert!(status.enabled, "other scopes still replicate");
        assert_eq!(status.requested_bytes, 0, "{status:?}");
        assert!(s.replica_extent("/scratch", 0).is_none());
    }

    #[test]
    fn sync_acks_defer_until_the_replica_lands() {
        let spec = DurabilitySpec::new(DurabilityMode::Sync);
        let mut s = staged_server(durable_staging(spec));
        let m = meta(1, 1);
        s.heartbeat(m, 0);
        s.submit(
            1,
            m,
            FsOp::Open {
                path: "/db".into(),
                create: true,
                truncate: false,
                append: false,
            },
            0,
        );
        let fd = loop {
            if let Some(r) = s.poll(0).iter().find(|r| r.request_id == 1) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        };
        s.submit(
            2,
            m,
            FsOp::Write {
                fd,
                data: vec![0x5A; 1 << 20],
            },
            1_000,
        );
        // Drive the write to execution: its ack must NOT surface while the
        // replica is still in flight.
        let mut t = 1_000;
        let mut acked_at = None;
        while acked_at.is_none() {
            if s.poll(t).iter().any(|r| r.request_id == 2) {
                acked_at = Some(t);
                break;
            }
            let status = s.replicate_status_snapshot().unwrap();
            if status.sync_acks_deferred > status.sync_acks_released {
                // The write executed and its ack is parked on the pipeline.
                assert_eq!(s.completions(), 2, "write completed internally");
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "sync ack never released");
        }
        let status = s.replicate_status_snapshot().unwrap();
        assert_eq!(status.sync_acks_deferred, 1);
        assert_eq!(status.sync_acks_released, 1);
        assert!(status.replicated_extents >= 1);
        // The replica had landed by ack time: the acked bytes survive a
        // burst-tier crash.
        assert!(s.replica_extent("/db", 0).is_some());
        // And the ack was genuinely deferred past the write's own
        // completion poll.
        assert!(acked_at.unwrap() > 1_000);
    }

    /// The classes waiting in the landing queue, in class order.
    fn landing_classes(s: &ServerCore) -> Vec<TrafficClass> {
        let st = s.staging.as_ref().expect("staging enabled");
        let mut classes: Vec<_> = st.landings.iter().map(|Reverse(l)| l.1).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// With a drain, a restore behind a parked read, a scrub verification,
    /// a shard migration and a replicate copy all waiting to land, a single
    /// poll past every finish time lands them all and applies each class's
    /// effect, leaving no class work in flight.
    #[test]
    fn one_poll_lands_every_class() {
        // A tier whose per-op latency dwarfs the burst device's, so every
        // class request sits in the landing queue for milliseconds.
        let slow_tier = DeviceConfig {
            per_op_overhead_ns: 10_000_000,
            ..DeviceConfig::capacity_hdd()
        };
        let mut staging = durable_staging(DurabilitySpec::new(DurabilityMode::LocalPlusOne));
        staging.backing_device = slow_tier;
        staging.sharding = Some(themis_stage::ShardSpec {
            map: "00-ff=0".into(),
            replication: 1,
            backends: vec![slow_tier, slow_tier],
        });
        // Every clean extent is evicted as soon as it drains.
        staging.drain.high_watermark_bytes = 1;
        staging.drain.low_watermark_bytes = 0;
        // Scrubbing is on, but only the demanded pass falls in this test.
        staging.drain.classes = staging.drain.classes.enable(TrafficClass::Scrub, 16);
        staging.drain.scrub_interval_ns = 1 << 60;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        let extent = 64 << 10;

        // "/a" is drained, replicated and evicted before the test window.
        write_file(&mut s, "/a", extent, 0);
        let mut t = 100_000;
        while !(s.drain_status_snapshot().unwrap().resident_bytes == 0
            && s.replicate_status_snapshot().unwrap().is_idle())
        {
            s.poll(t);
            t += 100_000;
            assert!(t < 60_000_000_000, "setup never quiesced");
        }
        assert!(landing_classes(&s).is_empty());
        let scrubs_before = s.scrub_status_snapshot().unwrap().passes_completed;

        // Dirty "/b" (owing a drain and a replica), demand a scrub pass,
        // reshard the tier (a migration of "/a") and read evicted "/a"
        // (parked behind a restore).
        write_file(&mut s, "/b", extent, t);
        {
            let st = s.staging.as_ref().unwrap();
            st.backing
                .as_sharded()
                .unwrap()
                .install_map(themis_stage::ShardMap::parse("00-7f=0,80-ff=1").unwrap(), 2)
                .unwrap();
        }
        s.scrub(700);
        s.submit(
            701,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/a".into(),
                offset: 0,
                len: extent as u64,
            },
            t,
        );
        while landing_classes(&s) != TrafficClass::ALL {
            let replies = s.poll(t);
            assert!(
                replies.iter().all(|r| r.request_id != 701),
                "read not parked"
            );
            t += 10_000;
            assert!(t < 60_000_000_000, "classes never all in flight at once");
        }

        // One poll past every finish time lands everything.
        let last = {
            let st = s.staging.as_ref().unwrap();
            st.landings.iter().map(|Reverse(l)| l.0).max().unwrap()
        };
        let replies = s.poll(last + 1);
        {
            let st = s.staging.as_ref().unwrap();
            assert!(st.landings.is_empty());
            assert_eq!(st.pipeline.inflight_len(), 0);
            assert!(!st.restore.is_busy());
            assert!(!st.scrub.is_busy());
            assert!(!st.rebalance.is_busy());
            assert!(!st.replicate.is_busy());
        }
        // Drain: "/b" is clean.
        assert_eq!(s.drain_status_snapshot().unwrap().dirty_bytes, 0);
        // Restore: the parked read woke with "/a"'s bytes.
        let read = replies.iter().find(|r| r.request_id == 701);
        assert!(
            matches!(read, Some(ReadyReply { reply: FsReply::Data(d), .. }) if *d == vec![0xAB; extent]),
            "{read:?}"
        );
        // Scrub: the demanded pass completed and was acknowledged.
        let scrub = s.scrub_status_snapshot().unwrap();
        assert_eq!(scrub.passes_completed, scrubs_before + 1);
        let stage = s.take_stage_replies();
        assert!(
            stage
                .iter()
                .any(|r| r.request_id == 700 && matches!(r.reply, StageReply::Scrub(_))),
            "{stage:?}"
        );
        // Rebalance: the migration was applied.
        assert!(s.rebalance_status_snapshot().unwrap().migrated_extents >= 1);
        // Replicate: "/b"'s replica landed.
        assert_eq!(s.replica_extent("/b", 0), Some(vec![0xAB; extent]));

        // Every status counter is the same-named registry series.
        s.metrics_snapshot(702, last + 1);
        let stage = s.take_stage_replies();
        let [StageReady {
            reply: StageReply::Metrics(snap),
            ..
        }] = &stage[..]
        else {
            panic!("{stage:?}");
        };
        let c = |lane: &str, name: &str| snap.counter(0, 0, lane, name);
        let g = |name: &str| snap.gauge(0, 0, "fs", name) as u64;
        let drain = s.drain_status_snapshot().unwrap();
        assert_eq!(drain.resident_bytes, g("resident_bytes"));
        assert_eq!(drain.dirty_bytes, g("dirty_bytes"));
        assert_eq!(drain.backing_bytes, g("backing_bytes"));
        assert_eq!(drain.drained_bytes, c("drain", "drained_bytes"));
        assert_eq!(drain.drained_ops, c("drain", "drained_ops"));
        assert_eq!(drain.evicted_bytes, c("drain", "evicted_bytes"));
        assert_eq!(drain.evicted_extents, c("drain", "evicted_extents"));
        assert_eq!(
            drain.pending_restore_bytes,
            c("restore", "requested_bytes") - c("restore", "completed_bytes")
        );
        assert_eq!(drain.restored_bytes, c("restore", "restored_bytes"));
        assert_eq!(drain.restored_ops, c("restore", "restored_ops"));
        let scrub = s.scrub_status_snapshot().unwrap();
        assert_eq!(scrub.passes_completed, c("scrub", "passes_completed"));
        assert_eq!(scrub.scrubbed_extents, c("scrub", "scrubbed_extents"));
        assert_eq!(scrub.scrubbed_bytes, c("scrub", "scrubbed_bytes"));
        assert_eq!(scrub.errors_detected, c("scrub", "errors_detected"));
        assert_eq!(scrub.repaired_extents, c("scrub", "repaired_extents"));
        assert_eq!(scrub.superseded_extents, c("scrub", "superseded_extents"));
        assert_eq!(
            scrub.quarantined_extents() as i64,
            snap.gauge(0, 0, "scrub", "quarantined_extents")
        );
        let rebalance = s.rebalance_status_snapshot().unwrap();
        let requested = c("rebalance", "rebalance_requested_bytes");
        assert_eq!(rebalance.requested_bytes, requested);
        assert_eq!(
            rebalance.migrated_bytes,
            c("rebalance", "rebalance_migrated_bytes")
        );
        assert_eq!(
            rebalance.pending_bytes,
            requested - c("rebalance", "rebalance_completed_bytes")
        );
        assert_eq!(
            rebalance.migrated_extents,
            c("rebalance", "migrated_extents")
        );
        assert_eq!(rebalance.copies_written, c("rebalance", "copies_written"));
        assert_eq!(rebalance.removed_extents, c("rebalance", "removed_extents"));
        assert_eq!(
            rebalance.superseded_extents,
            c("rebalance", "superseded_extents")
        );
        assert_eq!(rebalance.failed_extents, c("rebalance", "failed_extents"));
        assert_eq!(
            rebalance.passes_completed,
            c("rebalance", "passes_completed")
        );
        let replicate = s.replicate_status_snapshot().unwrap();
        let requested = c("replicate", "replicate_requested_bytes");
        let completed = c("replicate", "replicate_completed_bytes");
        assert_eq!(replicate.requested_bytes, requested);
        assert_eq!(replicate.completed_bytes, completed);
        assert_eq!(replicate.lag_bytes, requested - completed);
        assert_eq!(
            replicate.replicated_bytes,
            c("replicate", "replicate_replicated_bytes")
        );
        assert_eq!(
            replicate.replicated_extents,
            c("replicate", "replicated_extents")
        );
        assert_eq!(
            replicate.failed_replications,
            c("replicate", "failed_replications")
        );
        assert_eq!(
            replicate.sync_acks_deferred,
            c("replicate", "sync_acks_deferred")
        );
        assert_eq!(
            replicate.sync_acks_released,
            c("replicate", "sync_acks_released")
        );
        // Each class's totals read those same numbers.
        for (class, landed, owed, failed) in [
            (
                TrafficClass::Drain,
                drain.drained_bytes,
                drain.dirty_bytes,
                0,
            ),
            (
                TrafficClass::Restore,
                drain.restored_bytes,
                drain.pending_restore_bytes,
                0,
            ),
            (
                TrafficClass::Scrub,
                scrub.scrubbed_bytes,
                0,
                scrub.errors_detected,
            ),
            (
                TrafficClass::Rebalance,
                rebalance.migrated_bytes,
                rebalance.pending_bytes,
                rebalance.failed_extents,
            ),
            (
                TrafficClass::Replicate,
                replicate.replicated_bytes,
                replicate.lag_bytes,
                replicate.failed_replications,
            ),
        ] {
            let totals = ClassTotals {
                landed,
                owed,
                failed,
            };
            assert_eq!(s.class_totals(class), Some(totals), "{class}");
        }
    }

    /// A status query reads its pipeline's registry handles, never the
    /// whole registry: its cost stays flat as tenant series pile up beside
    /// it.
    #[test]
    fn status_queries_do_not_scale_with_tenant_series() {
        let mut s = staged_server(fast_staging());
        let time_queries = |s: &ServerCore| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box((
                        s.drain_status_snapshot(),
                        s.scrub_status_snapshot(),
                        s.rebalance_status_snapshot(),
                        s.replicate_status_snapshot(),
                    ));
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let empty = time_queries(&s);
        for job in 1..=10_000u64 {
            s.telemetry.tenant(0, job);
        }
        let crowded = time_queries(&s);
        println!("status queries: {empty:?} at 0 tenant series, {crowded:?} at 10^4");
        let bound = (empty * 10).max(empty + std::time::Duration::from_micros(200));
        assert!(
            crowded <= bound,
            "status queries took {crowded:?} at 10^4 tenant series (bound {bound:?})"
        );
    }
}
