//! Integration tests of the staging & drain subsystem, covering the PR's
//! acceptance criteria:
//!
//! 1. **Policy-driven drain** (simulator): with an 8:1 foreground:drain
//!    weight, foreground throughput during a checkpoint burst stays ≥ ~8/9
//!    of its no-drain baseline, while the burst buffer still fully drains in
//!    the gaps between bursts.
//! 2. **Watermark eviction + stage-in** (threaded deployment): clean extents
//!    are reclaimed under watermark pressure and a subsequent `stage_in`
//!    restores the data from the capacity tier byte-for-byte.

use std::time::Duration;
use themisio::prelude::*;
use themisio::sim::metrics::NS_PER_SEC;

struct Link(themisio::server::ClientConnection);

impl ServerLink for Link {
    fn send(&self, msg: ClientMessage) {
        self.0.send(msg);
    }
    fn recv(&self, timeout: Duration) -> Option<ServerMessage> {
        self.0.recv_timeout(timeout)
    }
}

fn client_for(dep: &Deployment, meta: JobMeta) -> ThemisClient<Link> {
    let links = (0..dep.server_count())
        .map(|i| Link(dep.connect(i)))
        .collect();
    ThemisClient::new(meta, links, Namespace::default_fs())
}

/// Two checkpoint bursts with a gap: each burst writes 1 GiB flat out, the
/// second starts 400 ms after the first.
fn checkpoint_bursts() -> Vec<SimJob> {
    let meta = JobMeta::new(1u64, 1u32, 1u32, 16);
    let burst = |start_ns: u64| {
        SimJob::new(
            meta,
            16,
            OpPattern::WriteOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .starting_at(start_ns)
        .with_max_ops(64)
        .with_queue_depth(4)
    };
    vec![burst(0), burst(2 * NS_PER_SEC / 5)]
}

fn staged_config(drain_weight: u32) -> SimConfig {
    SimConfig {
        staging: Some(SimStagingConfig {
            // A capacity tier as fast as the burst buffer: the policy weight
            // — not the backing device — is the binding constraint on drain
            // bandwidth, which is exactly the regime the weight exists for.
            backing_device: DeviceConfig::optane_ssd(),
            drain_weight,
            drain_chunk_bytes: 8 << 20,
            ..SimStagingConfig::default()
        }),
        ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
    }
}

#[test]
fn weighted_drain_preserves_foreground_throughput_and_fully_drains() {
    let total_written: u64 = 2 * 16 * 64 * (1 << 20); // two 1 GiB bursts

    // Baseline: no staging at all.
    let baseline = Simulation::new(
        SimConfig::new(1, Algorithm::Themis(Policy::size_fair())),
        checkpoint_bursts(),
    )
    .run();
    assert_eq!(baseline.class(TrafficClass::Drain).landed, 0);
    let baseline_finish = baseline.job_finish_ns[&JobId(1)];

    // Staged at 8:1.
    let staged = Simulation::new(staged_config(8), checkpoint_bursts()).run();
    let staged_finish = staged.job_finish_ns[&JobId(1)];

    // The buffer fully drained: every written byte reached the capacity
    // tier and no dirty bytes remain.
    assert_eq!(
        staged.class(TrafficClass::Drain).owed,
        0,
        "buffer did not fully drain"
    );
    assert_eq!(staged.class(TrafficClass::Drain).landed, total_written);
    // The drain finished inside the simulation (bounded by burst end + the
    // inter-burst-scale gap), not in some long tail.
    assert!(
        staged.sim_end_ns < staged_finish + 2 * NS_PER_SEC / 5,
        "drain tail too long: bursts done at {staged_finish}, drain at {}",
        staged.sim_end_ns
    );

    // Foreground throughput during drain ≥ ~8/9 of the no-drain baseline:
    // the bursts' completion time grows by at most the 1/9 the weight grants
    // drain traffic (plus scheduling slack).
    let slowdown = staged_finish as f64 / baseline_finish as f64;
    assert!(
        slowdown <= 9.0 / 8.0 * 1.06,
        "foreground slowdown {slowdown} exceeds the 8:1 weight's 9/8 bound"
    );
    assert!(slowdown >= 1.0, "staging cannot speed up the foreground");

    // At 1:1 the drain legitimately takes half the device while bursts run —
    // demonstrably more foreground interference than 8:1.
    let even = Simulation::new(staged_config(1), checkpoint_bursts()).run();
    assert_eq!(even.class(TrafficClass::Drain).owed, 0);
    let even_finish = even.job_finish_ns[&JobId(1)];
    assert!(
        even_finish > staged_finish,
        "1:1 weight should slow the foreground more than 8:1 ({even_finish} vs {staged_finish})"
    );
}

/// Restore-admission fairness (the PR 4 acceptance criterion): a tenant
/// re-reading a fully evicted file rides the policy-admitted restore class,
/// and at a foreground:restore weight of 8:1 the *other* tenant's checkpoint
/// throughput keeps ≥ 8/9 of its no-restore baseline — a restore storm can
/// no longer starve policy-arbitrated foreground traffic the way a raw
/// `DeviceTimeline` stage-in could.
#[test]
fn restore_storm_leaves_checkpointer_its_compute_shares_bound() {
    let run = |restore_miss_rate: f64| {
        let checkpointer = SimJob::new(
            JobMeta::new(1u64, 1u32, 1u32, 8),
            16,
            OpPattern::WriteOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .with_max_ops(64)
        .with_queue_depth(4);
        // The reader's working set was fully evicted to the capacity tier:
        // with `restore_miss_rate: 1.0` every read waits for a restore of
        // equal size.
        let reader = SimJob::new(
            JobMeta::new(2u64, 2u32, 1u32, 8),
            8,
            OpPattern::ReadOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .with_max_ops(48)
        .with_queue_depth(4);
        let config = SimConfig {
            staging: Some(SimStagingConfig {
                // Tier as fast as the buffer: the 8:1 weights — not the
                // backing device — bound restore and drain bandwidth.
                backing_device: DeviceConfig::optane_ssd(),
                drain_weight: 8,
                restore_weight: 8,
                restore_miss_rate,
                drain_chunk_bytes: 8 << 20,
                max_inflight: 4,
                ..SimStagingConfig::default()
            }),
            // The checkpointer (user 1) is the premium tenant at 8:1: the
            // reader's foreground competition is then small in the baseline,
            // so the 9/8 bound below genuinely constrains how much the
            // restore class may cost the protected foreground. (Under an
            // even split, the gated reader's shed share would make the storm
            // run *faster* than baseline and the bound would never bind.)
            ..SimConfig::new(
                1,
                Algorithm::Themis("user[8]-fair".parse().expect("valid DSL")),
            )
        };
        Simulation::new(config, vec![checkpointer, reader]).run()
    };

    let baseline = run(0.0);
    assert_eq!(baseline.class(TrafficClass::Restore).landed, 0);
    let storm = run(1.0);
    // Every read byte came back through the restore class first.
    assert_eq!(
        storm.class(TrafficClass::Restore).landed,
        8 * 48 * (1 << 20) as u64
    );
    // Both runs drain fully — restores never block stage-out.
    assert_eq!(baseline.class(TrafficClass::Drain).owed, 0);
    assert_eq!(storm.class(TrafficClass::Drain).owed, 0);

    // The checkpointer's bound: at 8:1 the restore class (plus the drain
    // class, present in both runs) may cost the foreground at most its 1/9
    // weighted slice, so checkpoint time grows by at most 9/8 over the
    // no-restore baseline (plus scheduling slack).
    let baseline_finish = baseline.job_finish_ns[&JobId(1)] as f64;
    let storm_finish = storm.job_finish_ns[&JobId(1)] as f64;
    let slowdown = storm_finish / baseline_finish;
    assert!(
        slowdown <= 9.0 / 8.0 * 1.06,
        "restore storm slowed the checkpointer {slowdown:.3}x, beyond its 8/9 bound"
    );

    // The reader, by contrast, is *deliberately* gated to restore bandwidth:
    // it must finish much later than in the all-hit baseline, and its
    // latency must carry the restore queue delay.
    assert!(
        storm.job_finish_ns[&JobId(2)] > baseline.job_finish_ns[&JobId(2)],
        "gated reader cannot be as fast as the all-hit baseline"
    );
    assert!(
        storm.tenant_latency(JobId(2)).p99_ns > baseline.tenant_latency(JobId(2)).p99_ns,
        "restore queue delay must appear in the reader's p99"
    );
}

/// Scrub-admission fairness (the PR 5 acceptance criterion): with the
/// background checksum scrubber walking a *deep* capacity tier (a standing
/// boot backlog of unverified extents, plus this run's drains) at a
/// foreground:scrub weight of 8:1, a checkpointing premium tenant keeps
/// ≥ 8/9 of its scrub-disabled throughput — the maintenance class, like
/// drain and restore before it, is bounded by its policy weight instead of
/// stealing device time. The deep tier is what makes the weight *bind*: a
/// continuously backlogged scrub lane is charged against the eligible
/// foreground, so 1:1 demonstrably hurts more than 8:1.
#[test]
fn scrub_at_8_1_leaves_checkpointer_its_compute_shares_bound() {
    // 4 GiB of unverified extents from previous runs — the standing scrub
    // backlog of a long-lived deployment.
    let deep_tier = 4u64 << 30;
    let run = |scrub_enabled: bool, scrub_weight: u32| {
        let checkpointer = SimJob::new(
            JobMeta::new(1u64, 1u32, 1u32, 8),
            16,
            OpPattern::WriteOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .with_max_ops(64)
        .with_queue_depth(4);
        let config = SimConfig {
            staging: Some(SimStagingConfig {
                // Tier as fast as the buffer: the weights — not the backing
                // device — bound drain and scrub bandwidth.
                backing_device: DeviceConfig::optane_ssd(),
                drain_weight: 8,
                scrub_weight,
                scrub_enabled,
                scrub_backlog_bytes: deep_tier,
                drain_chunk_bytes: 8 << 20,
                max_inflight: 4,
                ..SimStagingConfig::default()
            }),
            // The checkpointer is the premium tenant, as in the restore
            // acceptance test: the bound below genuinely constrains what the
            // scrub *class* may cost the protected foreground.
            ..SimConfig::new(
                1,
                Algorithm::Themis("user[8]-fair".parse().expect("valid DSL")),
            )
        };
        Simulation::new(config, vec![checkpointer]).run()
    };

    let total_written = 16 * 64 * (1 << 20) as u64;
    let baseline = run(false, 8);
    assert_eq!(baseline.class(TrafficClass::Scrub).landed, 0);
    assert_eq!(baseline.class(TrafficClass::Drain).landed, total_written);

    let scrubbed = run(true, 8);
    // One full verification pass: the boot backlog plus every drained byte
    // was re-read and checked, with zero mismatches on a sound tier.
    assert_eq!(scrubbed.class(TrafficClass::Drain).landed, total_written);
    assert_eq!(
        scrubbed.class(TrafficClass::Scrub).landed,
        deep_tier + total_written
    );
    assert_eq!(scrubbed.class(TrafficClass::Scrub).failed, 0);
    assert_eq!(scrubbed.class(TrafficClass::Drain).owed, 0);

    // The checkpointer's bound: at 8:1 the scrub class (plus the drain
    // class, present in both runs) may cost the foreground at most its 1/9
    // weighted slice, so checkpoint time grows by at most 9/8 over the
    // scrub-disabled baseline (plus scheduling slack) — even though the
    // scrub lane is backlogged for the *entire* checkpoint.
    let baseline_finish = baseline.job_finish_ns[&JobId(1)] as f64;
    let scrub_finish = scrubbed.job_finish_ns[&JobId(1)] as f64;
    let slowdown = scrub_finish / baseline_finish;
    assert!(
        slowdown <= 9.0 / 8.0 * 1.06,
        "scrubbing slowed the checkpointer {slowdown:.3}x, beyond its 8/9 bound"
    );
    assert!(
        slowdown >= 1.0,
        "scrubbing cannot speed up the foreground ({slowdown:.3}x)"
    );

    // At 1:1 the continuously backlogged scrubber legitimately takes up to
    // half the device — demonstrably more foreground interference than 8:1,
    // which is the direct evidence the weight knob is what bounds the
    // class.
    let even = run(true, 1);
    assert_eq!(
        even.class(TrafficClass::Scrub).landed,
        deep_tier + total_written
    );
    assert_eq!(even.class(TrafficClass::Scrub).failed, 0);
    let even_slowdown = even.job_finish_ns[&JobId(1)] as f64 / baseline_finish;
    assert!(
        even_slowdown > slowdown * 1.2,
        "1:1 scrub ({even_slowdown:.3}x) must hurt the foreground \
         demonstrably more than 8:1 ({slowdown:.3}x)"
    );
    assert!(
        even_slowdown <= 2.0 * 1.06,
        "1:1 scrub slowdown {even_slowdown:.3}x outside its envelope"
    );
}

#[test]
fn drain_completes_between_bursts() {
    // After the first burst's writes complete, the gap before the second
    // burst is long enough for the drain to finish; the second burst then
    // runs against an (almost) clean buffer. We verify by running only the
    // first burst and checking the drain tail fits well inside the gap.
    let meta = JobMeta::new(1u64, 1u32, 1u32, 16);
    let one_burst = vec![SimJob::new(
        meta,
        16,
        OpPattern::WriteOnly {
            bytes_per_op: 1 << 20,
        },
    )
    .with_max_ops(64)
    .with_queue_depth(4)];
    let result = Simulation::new(staged_config(8), one_burst).run();
    assert_eq!(result.class(TrafficClass::Drain).owed, 0);
    assert_eq!(
        result.class(TrafficClass::Drain).landed,
        16 * 64 * (1 << 20)
    );
    let burst_finish = result.job_finish_ns[&JobId(1)];
    let gap = 2 * NS_PER_SEC / 5 - burst_finish.min(2 * NS_PER_SEC / 5);
    assert!(
        result.sim_end_ns - burst_finish < gap,
        "drain tail {} ns does not fit in the {} ns inter-burst gap",
        result.sim_end_ns - burst_finish,
        gap
    );
}

#[test]
fn eviction_and_stage_in_roundtrip_through_deployment() {
    // Tiny watermarks so the drained checkpoint is evicted promptly; a fast
    // backing tier so the test completes quickly in wall-clock time.
    let dep = Deployment::start(2, |_| ServerConfig {
        algorithm: Algorithm::Themis(Policy::size_fair()),
        staging: Some(StagingConfig {
            backing_device: DeviceConfig::optane_ssd(),
            drain: DrainConfig {
                high_watermark_bytes: 256 << 10,
                low_watermark_bytes: 0,
                ..DrainConfig::default()
            },
            sharding: None,
            durability: None,
        }),
        ..ServerConfig::default()
    });
    let client = client_for(&dep, JobMeta::new(7u64, 7u32, 1u32, 8));
    client.hello();
    client.mkdir_all("/fs/run").unwrap();
    client.create_striped("/fs/run/ckpt", 1 << 20, 2).unwrap();
    let payload: Vec<u8> = (0..4 << 20).map(|i| (i * 31 % 251) as u8).collect();
    client.write_at("/fs/run/ckpt", 0, &payload).unwrap();

    // Flush forces the write-back; the acknowledgement arrives only once
    // every extent is clean in the capacity tier.
    let backing_bytes = client.flush("/fs/run/ckpt").unwrap();
    assert_eq!(backing_bytes, payload.len() as u64);
    // A second flush of the now-clean file is a no-op acknowledgement.
    assert_eq!(client.flush("/fs/run/ckpt").unwrap(), payload.len() as u64);

    // Watermark pressure (4 MiB resident vs 256 KiB high watermark) evicts
    // the clean extents; poll the status until eviction has happened.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut evicted = 0u64;
    while std::time::Instant::now() < deadline {
        evicted = (0..dep.server_count())
            .map(|s| client.drain_status(s).unwrap().evicted_bytes)
            .sum();
        if evicted >= payload.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        evicted >= payload.len() as u64,
        "only {evicted} bytes evicted"
    );
    let resident: u64 = (0..dep.server_count())
        .map(|s| client.drain_status(s).unwrap().resident_bytes)
        .sum();
    assert!(resident < payload.len() as u64, "eviction freed no space");

    // Stage-in restores every evicted byte — each server restores exactly
    // its own shard's stripes, so the summed count is exact. The read then
    // proves byte-for-byte equality with what was written before the
    // drain/evict cycle. (The tiny watermarks may re-evict between the
    // stage-in and the read — the read stages back in transparently, so the
    // data check below is the real invariant.)
    let restored = client.stage_in("/fs/run/ckpt").unwrap();
    assert_eq!(restored, payload.len() as u64);
    assert_eq!(
        client
            .read_at("/fs/run/ckpt", 0, payload.len() as u64)
            .unwrap(),
        payload
    );
    client.bye();
    dep.shutdown();
}

#[test]
fn transparent_read_after_eviction_needs_no_explicit_stage_in() {
    let dep = Deployment::start(1, |_| ServerConfig {
        algorithm: Algorithm::Themis(Policy::size_fair()),
        staging: Some(StagingConfig {
            backing_device: DeviceConfig::optane_ssd(),
            drain: DrainConfig {
                high_watermark_bytes: 64 << 10,
                low_watermark_bytes: 0,
                ..DrainConfig::default()
            },
            sharding: None,
            durability: None,
        }),
        ..ServerConfig::default()
    });
    let client = client_for(&dep, JobMeta::new(9u64, 9u32, 1u32, 4));
    client.hello();
    let payload = vec![0x5Au8; 2 << 20];
    let fd = client.open("/fs/data.bin", true, true, false).unwrap();
    client.write(fd, &payload).unwrap();
    client.close(fd).unwrap();
    client.flush("/fs/data.bin").unwrap();
    // Wait for eviction.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if client.drain_status(0).unwrap().evicted_bytes >= payload.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // A plain read stages the data back in server-side.
    assert_eq!(
        client
            .read_at("/fs/data.bin", 0, payload.len() as u64)
            .unwrap(),
        payload
    );
    client.bye();
    dep.shutdown();
}

/// Regression test for the parked-op ordering hole (pre-existing since the
/// traffic-class PR, surfaced by the scrub PR's review): a *later*
/// foreground write whose target extents are resident must not execute
/// while an *earlier* parked write targeting overlapping extents is still
/// waiting on its restores — the earlier write would land last and clobber
/// the later one's bytes. Deterministic interleaving, driven tick by tick
/// on one `ServerCore`:
///
/// 1. Two stripes are written, drained, and evicted.
/// 2. W1 (earlier) rewrites both stripes → parks behind two restores;
///    `max_inflight = 1` forces the restores to land in different ticks.
/// 3. When stripe 0's restore has landed (stripe 1's has not), W2 (later)
///    writes stripe 0 only — every extent it targets is resident.
/// 4. Both complete. Admission order demands stripe 0 hold W2's bytes:
///    pre-fix, W2 executed at step 3 and W1's delayed execution clobbered
///    it (stripe 0 read back W1's fill).
#[test]
fn later_resident_write_parks_behind_earlier_parked_overlapping_write() {
    const MIB: usize = 1 << 20;
    let job = JobMeta::new(7u64, 7u32, 1u32, 4);
    let mut s = ServerCore::new(
        0,
        BurstBufferFs::new(1),
        ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            staging: Some(StagingConfig {
                // A slow capacity tier widens the window between the two
                // restore landings; max_inflight = 1 makes them strictly
                // serial regardless.
                backing_device: DeviceConfig::capacity_hdd(),
                drain: DrainConfig {
                    high_watermark_bytes: 1 << 30,
                    low_watermark_bytes: 1 << 29,
                    max_inflight: 1,
                    ..DrainConfig::default()
                },
                sharding: None,
                durability: None,
            }),
            ..ServerConfig::default()
        },
    );
    s.heartbeat(job, 0);

    // Stripes 0 and 1 written (default 1 MiB stripes), drained clean.
    s.submit(
        1,
        job,
        FsOp::Open {
            path: "/f".into(),
            create: true,
            truncate: false,
            append: false,
        },
        0,
    );
    s.submit(
        2,
        job,
        FsOp::WriteAt {
            path: "/f".into(),
            offset: 0,
            data: vec![0xAA; 2 * MIB],
        },
        0,
    );
    let mut t = 0u64;
    loop {
        s.poll(t);
        let status = s.drain_status_snapshot().expect("staging enabled");
        if status.dirty_bytes == 0 && status.backing_bytes >= (2 * MIB) as u64 {
            break;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "initial drain never completed");
    }
    // Evict both stripes so W1 must park behind restores.
    s.fs().evict_clean_on(0, 0);
    assert_eq!(
        s.fs().evicted_extents_on(0, Some("/f")).len(),
        2,
        "both stripes must start evicted"
    );

    // W1 (earlier): overwrite both stripes. It parks on two restores that
    // land serially.
    s.submit(
        10,
        job,
        FsOp::WriteAt {
            path: "/f".into(),
            offset: 0,
            data: vec![0x11; 2 * MIB],
        },
        t,
    );
    // Tick until exactly one stripe has been restored (W1 still parked).
    let mut w1_done = false;
    loop {
        if s.poll(t).iter().any(|r| r.request_id == 10) {
            w1_done = true;
            break;
        }
        let evicted = s.fs().evicted_extents_on(0, Some("/f"));
        if evicted.len() == 1 {
            break;
        }
        t += 100_000;
        assert!(t < 120_000_000_000, "first restore never landed");
    }
    assert!(
        !w1_done,
        "W1 must still be parked when its first restore lands (serial restores)"
    );

    // W2 (later): write stripe 0 only. Its sole target extent is resident
    // (just restored), so pre-fix it executed immediately.
    s.submit(
        11,
        job,
        FsOp::WriteAt {
            path: "/f".into(),
            offset: 0,
            data: vec![0x22; MIB],
        },
        t,
    );

    // Drive both writes to completion, recording reply order.
    let mut order = Vec::new();
    loop {
        for r in s.poll(t) {
            if r.request_id == 10 || r.request_id == 11 {
                assert!(
                    !matches!(r.reply, FsReply::Error(_)),
                    "unexpected error reply: {:?}",
                    r.reply
                );
                order.push(r.request_id);
            }
        }
        if order.len() == 2 {
            break;
        }
        t += 100_000;
        assert!(t < 240_000_000_000, "parked writes never completed");
    }
    assert_eq!(order, vec![10, 11], "admission order must be preserved");

    // Admission-order final bytes: stripe 0 holds W2's fill (it was
    // admitted after W1), stripe 1 holds W1's.
    let stripe0 = s.fs().read_at("/f", 0, MIB as u64).unwrap();
    assert!(
        stripe0.iter().all(|&b| b == 0x22),
        "stripe 0 must hold the later write's bytes (first differing byte: {:?})",
        stripe0.iter().find(|&&b| b != 0x22)
    );
    let stripe1 = s.fs().read_at("/f", MIB as u64, MIB as u64).unwrap();
    assert!(
        stripe1.iter().all(|&b| b == 0x11),
        "stripe 1 must hold the earlier write's bytes"
    );
}
