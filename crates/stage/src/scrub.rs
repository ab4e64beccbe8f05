//! The per-server scrub pipeline: background checksum verification of the
//! capacity tier, admitted through the policy engine as
//! [`TrafficClass::Scrub`](crate::TrafficClass::Scrub) traffic.
//!
//! Burst-buffer deployments back their staging tier with cheaper, colder
//! media, where silent corruption is a real operational hazard (Romanus et
//! al., "Challenges and Considerations for Utilizing Burst Buffers in HPC").
//! The scrubber walks the tier's extents in key order — one *pass* covers
//! every extent this server owns — re-reads each copy, and compares it
//! against the checksum recorded at drain write-back time
//! ([`extent_checksum`](crate::backing::extent_checksum)). On a mismatch the
//! server repairs the copy from the burst tier when a clean resident copy
//! still exists, defers to the pending drain when a concurrent foreground
//! write re-dirtied the extent (the generation guard — a scrub must never
//! "repair" a tier copy from data the drain pipeline has not flushed yet),
//! and otherwise *quarantines* the extent, surfacing it through
//! [`ScrubStatus`].
//!
//! Unlike drain (driven by dirty foreground writes) and restore (driven by
//! foreground misses), scrub requests are synthesized purely from *tier
//! state*: the pipeline holds a cursor into the capacity tier and a pass
//! timer, and the only thing foreground traffic controls is how fast the
//! engine releases the requests — the scrub lane runs at its
//! [`ClassWeights`](crate::ClassWeights) weight against the foreground
//! like every other class, and expands into idle
//! capacity when the foreground goes quiet. That makes it the first
//! *maintenance* class on the reserved range, proving the class framework
//! generalises beyond the demand-driven drain/restore pair.

use crate::backing::BackingStore;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_telemetry::{Counter, Gauge, MetricsRegistry, SeriesKey};

/// A point-in-time snapshot of one server's scrub state, reported through
/// the `ScrubStatus` control-plane message and as the deferred
/// acknowledgement of an explicit `Scrub` request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubStatus {
    /// Whether the continuous background scrubber is enabled on this server
    /// (an explicit `Scrub` request forces a pass either way).
    pub enabled: bool,
    /// Completed full passes over the capacity tier since boot.
    pub passes_completed: u64,
    /// Whether a pass is currently in progress.
    pub pass_active: bool,
    /// Scrub verifications admitted and not yet completed.
    pub inflight: usize,
    /// Extents verified since boot (clean or not).
    pub scrubbed_extents: u64,
    /// Bytes verified since boot.
    pub scrubbed_bytes: u64,
    /// Checksum mismatches detected since boot (every corruption event,
    /// whatever its outcome below).
    pub errors_detected: u64,
    /// Mismatched extents repaired from a clean resident burst-tier copy.
    pub repaired_extents: u64,
    /// Mismatched extents superseded by a concurrent foreground write: the
    /// shard copy was dirty at verification time, so the pending drain —
    /// not the scrubber — owns the tier copy's next contents (the
    /// generation guard).
    pub superseded_extents: u64,
    /// Extents currently quarantined: corrupt in the tier with no resident
    /// burst copy to repair from. The data is left in place for forensics;
    /// operators (and tests) read this list to learn exactly which extents
    /// are damaged.
    pub quarantined: Vec<(String, u64)>,
}

impl ScrubStatus {
    /// Number of quarantined extents.
    pub fn quarantined_extents(&self) -> usize {
        self.quarantined.len()
    }

    /// Whether the scrubber has found no unresolved corruption.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// One extent travelling through the scrub pipeline.
#[derive(Debug, Clone)]
pub struct ScrubTarget {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length at admission time (the request's cost).
    pub bytes: u64,
}

/// Pre-resolved registry handles mirroring [`ScrubPipeline`]'s cumulative
/// counters. Quarantine membership is instantaneous (extents leave the set
/// when a fresh drain rewrites them), so it mirrors into a gauge.
#[derive(Debug)]
struct ScrubStats {
    passes_completed: Counter,
    scrubbed_extents: Counter,
    scrubbed_bytes: Counter,
    errors_detected: Counter,
    repaired_extents: Counter,
    superseded_extents: Counter,
    quarantined_extents: Gauge,
}

/// Per-server scrub bookkeeping: the pass cursor over the capacity tier,
/// extents in flight, cumulative verification counters and the quarantine
/// set.
///
/// Mirrors [`DrainPipeline`](crate::pipeline::DrainPipeline) /
/// [`RestorePipeline`](crate::pipeline::RestorePipeline): the pipeline
/// decides *what* to verify and synthesizes the policy-visible
/// [`IoRequest`]s under the [`TrafficClass::Scrub`](crate::TrafficClass)
/// identity; the server core moves the bytes (and judges the checksums)
/// when the engine releases each request.
#[derive(Debug)]
pub struct ScrubPipeline {
    server: usize,
    enabled: bool,
    interval_ns: u64,
    max_inflight: usize,
    /// Last key admitted this pass; `None` at the start of a pass.
    cursor: Option<(String, u64)>,
    /// Whether a pass is in progress (admitting or waiting on inflight).
    pass_active: bool,
    /// The cursor walked off the end of the tier; the pass completes once
    /// the in-flight verifications land.
    cursor_exhausted: bool,
    /// Monotonic pass counter; the *current* pass id while one is active.
    pass: u64,
    /// Virtual time before which no new pass starts (pass pacing).
    next_pass_due_ns: u64,
    /// A forced pass was requested (explicit `Scrub` message) — overrides
    /// both `enabled` and the pass interval.
    forced: bool,
    inflight: HashMap<u64, ScrubTarget>,
    passes_completed: u64,
    scrubbed_extents: u64,
    scrubbed_bytes: u64,
    errors_detected: u64,
    repaired_extents: u64,
    superseded_extents: u64,
    quarantined: BTreeSet<(String, u64)>,
    stats: Option<ScrubStats>,
}

impl ScrubPipeline {
    /// Creates the scrub pipeline of `server`: `enabled` runs continuous
    /// passes paced by `interval_ns`, admitting at most `max_inflight`
    /// verifications at a time.
    pub fn new(server: usize, enabled: bool, interval_ns: u64, max_inflight: usize) -> Self {
        ScrubPipeline {
            server,
            enabled,
            interval_ns,
            max_inflight: max_inflight.max(1),
            cursor: None,
            pass_active: false,
            cursor_exhausted: false,
            pass: 0,
            next_pass_due_ns: 0,
            forced: false,
            inflight: HashMap::new(),
            passes_completed: 0,
            scrubbed_extents: 0,
            scrubbed_bytes: 0,
            errors_detected: 0,
            repaired_extents: 0,
            superseded_extents: 0,
            quarantined: BTreeSet::new(),
            stats: None,
        }
    }

    /// Resolves registry handles (lane `"scrub"` on this pipeline's server)
    /// so every subsequent outcome is mirrored into `registry` — see
    /// [`DrainPipeline::attach_telemetry`](crate::DrainPipeline::attach_telemetry).
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        let key = SeriesKey::class(self.server, crate::TrafficClass::Scrub.name());
        self.stats = Some(ScrubStats {
            passes_completed: registry.counter(key, "passes_completed"),
            scrubbed_extents: registry.counter(key, "scrubbed_extents"),
            scrubbed_bytes: registry.counter(key, "scrubbed_bytes"),
            errors_detected: registry.counter(key, "errors_detected"),
            repaired_extents: registry.counter(key, "repaired_extents"),
            superseded_extents: registry.counter(key, "superseded_extents"),
            quarantined_extents: registry.gauge(key, "quarantined_extents"),
        });
    }

    /// The scrub job identity of this server.
    pub fn meta(&self) -> JobMeta {
        crate::TrafficClass::Scrub.meta(self.server)
    }

    /// Whether the continuous background scrubber is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Demands a scrub pass (the explicit `Scrub` control-plane request):
    /// returns the id of the pass whose completion the caller should wait
    /// for. The demand is always answered by a pass that *starts* after it
    /// arrived — acking a pass already in flight would certify extents its
    /// cursor walked before the demand (and before whatever prompted it) —
    /// so a running pass is allowed to finish and a forced follow-up pass
    /// starts right behind it, bypassing the interval pacing.
    pub fn force_pass(&mut self) -> u64 {
        self.forced = true;
        // Whether idle (the forced pass is the next to start) or active
        // (the current pass `self.pass` finishes first, then the forced
        // follow-up starts immediately), the demand's pass id is the same.
        self.pass + 1
    }

    /// Admits the next extent of the current pass under sequence number
    /// `seq`, starting a pass first when one is due. Returns the
    /// [`IoRequest`] to feed to the policy engine — a *read* costed at the
    /// extent's length (the verification streams the tier copy through one
    /// of the server's policy-granted service slots; the matching
    /// capacity-tier read is charged by the caller when the engine releases
    /// the request). `None` when no pass is due, the cursor is exhausted,
    /// or the pipelining depth is reached.
    ///
    /// `owns` decides which tier extents this server verifies (stripe →
    /// shard ownership), so a multi-server deployment scrubs the shared
    /// tier exactly once. Quarantined extents are skipped — re-detecting a
    /// known-bad extent every pass would only inflate the error counters.
    pub fn admit_next(
        &mut self,
        seq: u64,
        now_ns: u64,
        backing: &dyn BackingStore,
        owns: impl Fn(&str, u64) -> bool,
    ) -> Option<IoRequest> {
        if !self.pass_active {
            let due = self.forced || (self.enabled && now_ns >= self.next_pass_due_ns);
            if !due {
                return None;
            }
            self.pass_active = true;
            self.cursor = None;
            self.cursor_exhausted = false;
            self.forced = false;
            self.pass += 1;
        }
        if self.cursor_exhausted || self.inflight.len() >= self.max_inflight {
            return None;
        }
        loop {
            let Some((path, stripe, bytes)) = backing.next_extent_after(self.cursor.as_ref())
            else {
                self.cursor_exhausted = true;
                return None;
            };
            self.cursor = Some((path.clone(), stripe));
            if !owns(&path, stripe) || self.quarantined.contains(&(path.clone(), stripe)) {
                continue;
            }
            let bytes = bytes.max(1);
            self.inflight.insert(
                seq,
                ScrubTarget {
                    path,
                    stripe,
                    bytes,
                },
            );
            return Some(IoRequest::new(
                seq,
                self.meta(),
                OpKind::Read,
                bytes,
                now_ns,
            ));
        }
    }

    /// Looks up an in-flight scrub by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&ScrubTarget> {
        self.inflight.get(&seq)
    }

    /// Completes a verification: removes it from the in-flight set and
    /// returns the target so the caller can judge the checksum and record
    /// the outcome with one of the `record_*` methods.
    pub fn complete(&mut self, seq: u64) -> Option<ScrubTarget> {
        self.inflight.remove(&seq)
    }

    /// Accounts one judged verification into the pipeline counters and their
    /// registry mirrors (`error` for any mismatch, whatever its outcome).
    fn record_verified(&mut self, bytes: u64, error: bool) {
        self.scrubbed_extents += 1;
        self.scrubbed_bytes += bytes;
        if error {
            self.errors_detected += 1;
        }
        if let Some(s) = &self.stats {
            s.scrubbed_extents.inc();
            s.scrubbed_bytes.add(bytes);
            if error {
                s.errors_detected.inc();
            }
        }
    }

    /// Mirrors the quarantine set's size into the registry gauge.
    fn sync_quarantine_gauge(&self) {
        if let Some(s) = &self.stats {
            s.quarantined_extents.set(self.quarantined.len() as i64);
        }
    }

    /// Records a verification whose checksum matched (`bytes` verified).
    pub fn record_clean(&mut self, bytes: u64) {
        self.record_verified(bytes, false);
    }

    /// Records a detected mismatch that was repaired from a clean resident
    /// burst copy.
    pub fn record_repaired(&mut self, bytes: u64) {
        self.record_verified(bytes, true);
        self.repaired_extents += 1;
        if let Some(s) = &self.stats {
            s.repaired_extents.inc();
        }
    }

    /// Records a detected mismatch on an extent a concurrent foreground
    /// write re-dirtied: the pending drain supersedes the scrubber (the
    /// generation guard), so nothing is repaired.
    pub fn record_superseded(&mut self, bytes: u64) {
        self.record_verified(bytes, true);
        self.superseded_extents += 1;
        if let Some(s) = &self.stats {
            s.superseded_extents.inc();
        }
    }

    /// Records a detected mismatch with no resident burst copy to repair
    /// from: the extent enters quarantine.
    pub fn record_quarantined(&mut self, path: String, stripe: u64, bytes: u64) {
        self.record_verified(bytes, true);
        self.quarantined.insert((path, stripe));
        self.sync_quarantine_gauge();
    }

    /// Lifts the quarantine of an extent whose tier copy was legitimately
    /// rewritten (a fresh drain write-back recomputes the checksum, so the
    /// new copy is sound by construction) or removed (unlink).
    pub fn unquarantine(&mut self, path: &str, stripe: u64) {
        self.quarantined.remove(&(path.to_string(), stripe));
        self.sync_quarantine_gauge();
    }

    /// Lifts the quarantine of every extent of `path` (unlink propagation —
    /// the tier copies are gone, so there is nothing left to warn about).
    pub fn unquarantine_path(&mut self, path: &str) {
        self.quarantined.retain(|(p, _)| p != path);
        self.sync_quarantine_gauge();
    }

    /// Finishes the pass if its cursor is exhausted and every in-flight
    /// verification has landed, returning the completed pass id (the key
    /// deferred `Scrub` acknowledgements wait on). Schedules the next pass
    /// `interval_ns` from `now_ns`.
    pub fn finish_pass_if_idle(&mut self, now_ns: u64) -> Option<u64> {
        if !self.pass_active || !self.cursor_exhausted || !self.inflight.is_empty() {
            return None;
        }
        self.pass_active = false;
        self.cursor = None;
        self.cursor_exhausted = false;
        self.passes_completed += 1;
        if let Some(s) = &self.stats {
            s.passes_completed.inc();
        }
        self.next_pass_due_ns = now_ns.saturating_add(self.interval_ns);
        Some(self.pass)
    }

    /// Whether any scrub work is admitted and unfinished.
    pub fn is_busy(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Builds the status snapshot.
    pub fn status(&self) -> ScrubStatus {
        ScrubStatus {
            enabled: self.enabled,
            passes_completed: self.passes_completed,
            pass_active: self.pass_active,
            inflight: self.inflight.len(),
            scrubbed_extents: self.scrubbed_extents,
            scrubbed_bytes: self.scrubbed_bytes,
            errors_detected: self.errors_detected,
            repaired_extents: self.repaired_extents,
            superseded_extents: self.superseded_extents,
            quarantined: self.quarantined.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{extent_checksum, CapacityTier};
    use crate::BackingStore;

    fn tier_with(extents: &[(&str, u64, usize)]) -> CapacityTier {
        let tier = CapacityTier::hdd();
        for (path, stripe, len) in extents {
            tier.write_back(path, *stripe, &vec![9u8; *len]);
        }
        tier
    }

    #[test]
    fn a_pass_walks_owned_extents_and_completes() {
        let tier = tier_with(&[("/a", 0, 100), ("/a", 1, 200), ("/b", 0, 300)]);
        let mut p = ScrubPipeline::new(0, true, 1_000, 2);
        // Owns everything except /b.
        let owns = |path: &str, _stripe: u64| path != "/b";
        let r0 = p.admit_next(1, 0, &tier, owns).expect("first admit");
        assert_eq!(
            crate::TrafficClass::of(r0.meta.job),
            Some(crate::TrafficClass::Scrub)
        );
        assert_eq!(r0.kind, OpKind::Read);
        assert_eq!(r0.bytes, 100);
        let r1 = p.admit_next(2, 0, &tier, owns).expect("second admit");
        assert_eq!(r1.bytes, 200);
        // Depth 2 reached.
        assert!(p.admit_next(3, 0, &tier, owns).is_none());
        assert!(p.is_busy());
        // Completions free depth; /b is skipped, so the cursor exhausts.
        let t = p.complete(1).unwrap();
        assert_eq!((t.path.as_str(), t.stripe), ("/a", 0));
        p.record_clean(t.bytes);
        assert!(p.admit_next(3, 0, &tier, owns).is_none(), "only /b left");
        // The pass is not done until the second verification lands.
        assert!(p.finish_pass_if_idle(500).is_none());
        let t = p.complete(2).unwrap();
        p.record_clean(t.bytes);
        let pass = p.finish_pass_if_idle(500).expect("pass complete");
        assert_eq!(pass, 1);
        let status = p.status();
        assert_eq!(status.passes_completed, 1);
        assert_eq!(status.scrubbed_extents, 2);
        assert_eq!(status.scrubbed_bytes, 300);
        assert_eq!(status.errors_detected, 0);
        assert!(status.is_healthy());
        // The next pass is paced by the interval.
        assert!(p.admit_next(4, 1_000, &tier, owns).is_none());
        assert!(p.admit_next(4, 1_500 + 1, &tier, owns).is_some());
    }

    #[test]
    fn force_pass_bypasses_interval_and_disabled_state() {
        let tier = tier_with(&[("/x", 0, 64)]);
        let mut p = ScrubPipeline::new(0, false, u64::MAX, 4);
        // Disabled: nothing is admitted on its own.
        assert!(p.admit_next(1, 0, &tier, |_, _| true).is_none());
        let pass = p.force_pass();
        assert_eq!(pass, 1);
        let r = p.admit_next(1, 0, &tier, |_, _| true).expect("forced");
        assert_eq!(r.bytes, 64);
        let t = p.complete(1).unwrap();
        p.record_clean(t.bytes);
        assert!(p.admit_next(2, 0, &tier, |_, _| true).is_none());
        assert_eq!(p.finish_pass_if_idle(0), Some(1));
        // Forcing during an active pass waits for a *follow-up* pass: the
        // running pass walked its cursor before the demand arrived, so
        // acking it would certify stale verifications.
        assert_eq!(p.force_pass(), 2);
        let t3 = p.admit_next(3, 0, &tier, |_, _| true).expect("second pass");
        assert_eq!(p.force_pass(), 3, "demand mid-pass targets the next pass");
        // Pass 2 completes; the forced follow-up (pass 3) starts right
        // behind it without waiting out the (infinite) interval, and its
        // completion is what answers the mid-pass demand.
        let done = p.complete(t3.seq).unwrap();
        p.record_clean(done.bytes);
        assert!(p.admit_next(4, 0, &tier, |_, _| true).is_none());
        assert_eq!(p.finish_pass_if_idle(0), Some(2));
        let t4 = p
            .admit_next(4, 0, &tier, |_, _| true)
            .expect("forced follow-up");
        let done = p.complete(t4.seq).unwrap();
        p.record_clean(done.bytes);
        assert!(p.admit_next(5, 0, &tier, |_, _| true).is_none());
        assert_eq!(p.finish_pass_if_idle(0), Some(3));
    }

    #[test]
    fn outcomes_account_and_quarantine_dedups() {
        let tier = tier_with(&[("/q", 0, 50), ("/q", 1, 60)]);
        tier.corrupt_extent("/q", 0, 3);
        let (data, stored) = tier.read_back_with_checksum("/q", 0).unwrap();
        assert_ne!(extent_checksum(&data), stored);
        let mut p = ScrubPipeline::new(0, true, 0, 4);
        p.record_quarantined("/q".into(), 0, 50);
        p.record_repaired(60);
        p.record_superseded(10);
        let status = p.status();
        assert_eq!(status.errors_detected, 3);
        assert_eq!(status.repaired_extents, 1);
        assert_eq!(status.superseded_extents, 1);
        assert_eq!(status.quarantined, vec![("/q".to_string(), 0)]);
        assert_eq!(status.quarantined_extents(), 1);
        assert!(!status.is_healthy());
        // A quarantined key is skipped by admission…
        let r = p.admit_next(9, 0, &tier, |_, _| true).expect("admit");
        assert_eq!(p.inflight(9).unwrap().stripe, 1);
        assert_eq!(r.bytes, 60);
        // …until a legitimate rewrite lifts the quarantine.
        p.unquarantine("/q", 0);
        assert!(p.status().is_healthy());
    }

    #[test]
    fn empty_tier_pass_completes_immediately() {
        let tier = CapacityTier::hdd();
        let mut p = ScrubPipeline::new(0, true, 100, 4);
        assert!(p.admit_next(1, 0, &tier, |_, _| true).is_none());
        assert_eq!(p.finish_pass_if_idle(7), Some(1));
        assert_eq!(p.status().passes_completed, 1);
        assert!(!p.status().pass_active);
    }
}
