//! The traced replay: a prefix of the workload's op stream, sent one request
//! at a time through each layer's public entry point, each call a child span
//! of the replayed request.
//!
//! | span             | entry point                                         |
//! |------------------|-----------------------------------------------------|
//! | `client.call`    | `ThemisClient::{read_at, write_at, stat}` over a loopback link |
//! | `net.rtt`        | a `channel_pair` echo through another thread         |
//! | `core.submit`    | `ServerCore::submit`                                 |
//! | `core.poll`      | `ServerCore::poll` until the request's reply         |
//! | `sched.*`        | `PolicyEngine::{admit, select, complete}`            |
//! | `fs.*`           | `BurstBufferFs::{read_at, write_at}`                 |
//!
//! The core runs on its own prefilled file system with the workload's
//! configuration and tenants, so the live deployment is not disturbed.

use crate::gen::{Kind, Op};
use crate::live::{judge, Checker, Counts};
use crate::stats::median;
use crate::trace::{self_times, Recorder, Span};
use crate::workload::{Name, Spec, HIGH_WATERMARK};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use themis_baselines::Algorithm;
use themis_client::{Namespace, ServerLink, ThemisClient};
use themis_core::engine::PolicyEngine;
use themis_core::job_table::JobTable;
use themis_core::request::{Completion, IoRequest};
use themis_fs::store::StatInfo;
use themis_fs::BurstBufferFs;
use themis_net::message::{ClientMessage, FsOp, FsReply, ServerMessage};
use themis_net::transport::channel_pair;
use themis_server::ServerCore;
use themis_stage::StagedEngine;

/// Trace ids of replayed requests start here, clear of live request ids.
const REPLAY_TRACE_BASE: u64 = 1 << 48;
/// A replayed request whose reply takes longer than this is a timeout.
const POLL_TIMEOUT: Duration = Duration::from_secs(10);

/// Median per-call cost of each layer.
#[derive(Debug)]
pub struct Replay {
    pub client_call_us: f64,
    pub net_rtt_us: f64,
    pub core_submit_us: f64,
    pub core_poll_us: f64,
    /// Median of submit + poll per request.
    pub core_op_us: f64,
    pub sched_admit_ns: f64,
    pub sched_select_ns: f64,
    pub sched_complete_ns: f64,
    pub sched_register_us: f64,
    /// Size of the fs calls: the workload's data-op size.
    pub fs_len: u64,
    pub fs_read_us: f64,
    pub fs_write_us: f64,
    pub fs_copy_gib_s: f64,
}

fn prefix_len(name: Name) -> usize {
    match name {
        Name::SmallOps => 20_000,
        Name::FairLarge => 1_000,
        Name::StagedSpill => 300,
    }
}

/// A `ServerLink` that answers every request at once without a server:
/// what remains of a client call is the client's own work.
struct Loopback {
    stat: StatInfo,
    reply: Mutex<Option<ServerMessage>>,
}

impl ServerLink for Loopback {
    fn send(&self, msg: ClientMessage) {
        if let ClientMessage::Io { request_id, op, .. } = msg {
            let reply = match op {
                FsOp::WriteAt { data, .. } => FsReply::Count(data.len() as u64),
                FsOp::ReadAt { .. } => FsReply::Data(Vec::new()),
                _ => FsReply::Stat(self.stat),
            };
            *self.reply.lock().expect("loopback lock") =
                Some(ServerMessage::IoReply { request_id, reply });
        }
    }
    fn recv(&self, _timeout: Duration) -> Option<ServerMessage> {
        self.reply.lock().expect("loopback lock").take()
    }
}

/// The scheduler the workload's server runs, alone, with every tenant
/// registered.
fn engine(spec: &Spec) -> Box<dyn PolicyEngine> {
    let inner = Algorithm::Themis(spec.policy.clone()).build();
    let mut engine: Box<dyn PolicyEngine> = match &spec.staging {
        Some(sc) => Box::new(StagedEngine::with_weights(inner, sc.drain.class_weights())),
        None => inner,
    };
    let mut table = JobTable::with_heartbeat_timeout(u64::MAX / 2);
    for &m in &spec.tenants {
        table.heartbeat(m, 0);
    }
    engine.reconfigure(&table, &spec.policy);
    engine
}

pub fn replay(
    spec: &Spec,
    seed: u64,
    epoch: Instant,
    spans: &mut Vec<Span>,
    counts: &mut Counts,
) -> Replay {
    let mut chk = Checker::new(spec, crate::gen::Pattern::new(seed));
    let fs = BurstBufferFs::new(1);
    spec.prefill(&fs, chk.pattern());
    let mut core = ServerCore::new(0, fs.clone(), spec.server_config());
    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    let register: Vec<f64> = spec
        .tenants
        .iter()
        .map(|&m| {
            let t = Instant::now();
            core.heartbeat(m, now());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    if spec.staging.is_some() {
        // Drain the prefill and evict down to the watermark, as the live
        // set-up does, before replaying.
        let deadline = Instant::now() + Duration::from_secs(60);
        while fs.dirty_bytes_on(0) > 0 || fs.resident_bytes_on(0) > HIGH_WATERMARK {
            core.poll(now());
            core.take_stage_replies();
            assert!(Instant::now() < deadline, "replay core never settled");
        }
    }

    let mut sched = engine(spec);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ops = spec.prefix(prefix_len(spec.name));
    // Keep the scheduler's queue as deep as the live loop keeps it.
    let standing = (spec.streams().len() * spec.depth).saturating_sub(1);
    for (seq, op) in ops.iter().take(standing).enumerate() {
        let meta = spec.tenants[op.tenant as usize];
        sched.admit(IoRequest::new(seq as u64, meta, kind_of(op), op.len, now()));
    }

    let client = ThemisClient::new(
        spec.tenants[0],
        vec![Loopback {
            stat: fs.stat(&spec.path(0)).expect("prefilled file"),
            reply: Mutex::new(None),
        }],
        Namespace::default_fs(),
    );
    let (near, far) = channel_pair::<Vec<u8>>();
    let echo = std::thread::spawn(move || {
        while let Ok(m) = far.recv() {
            if far.send(m).is_err() {
                break;
            }
        }
    });
    let mut buf = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        let meta = spec.tenants[op.tenant as usize];
        let path = spec.path(op.file);
        let posix = format!("/fs{path}");
        let mut rec = Recorder::open(spans, epoch, REPLAY_TRACE_BASE + i as u64, "replay.request");
        let (version, data) = match op.kind {
            Kind::Write => {
                let (v, d) = chk.begin_write(op);
                (v, Some(d))
            }
            _ => (chk.version(op), None),
        };

        let called = rec.child("client.call", || match (&data, op.kind) {
            (Some(d), _) => client.write_at(&posix, op.offset, d).map(drop),
            (None, Kind::Read) => client.read_at(&posix, op.offset, op.len).map(drop),
            (None, _) => client.stat(&posix).map(drop),
        });
        if called.is_err() {
            counts.errors += 1;
        }

        buf.resize(
            if op.kind == Kind::Stat {
                0
            } else {
                op.len as usize
            },
            0,
        );
        let payload = std::mem::take(&mut buf);
        buf = rec.child("net.rtt", || {
            near.send(payload).expect("echo thread alive");
            near.recv().expect("echo thread alive")
        });

        let fs_op = match data {
            Some(data) => FsOp::WriteAt {
                path: path.clone(),
                offset: op.offset,
                data,
            },
            None if op.kind == Kind::Read => FsOp::ReadAt {
                path: path.clone(),
                offset: op.offset,
                len: op.len,
            },
            None => FsOp::Stat { path: path.clone() },
        };
        let id = i as u64;
        counts.attempted += 1;
        rec.child("core.submit", || core.submit(id, meta, fs_op, now()));
        let reply = rec.child("core.poll", || {
            let deadline = Instant::now() + POLL_TIMEOUT;
            while Instant::now() < deadline {
                if let Some(r) = core.poll(now()).into_iter().find(|r| r.request_id == id) {
                    return Some(r.reply);
                }
                core.take_stage_replies();
            }
            None
        });
        match reply {
            Some(reply) => {
                judge(spec, &mut chk, counts, op, version, reply);
            }
            None => counts.timeouts += 1,
        }

        let t = now();
        let request = IoRequest::new((standing + i) as u64, meta, kind_of(op), op.len, t);
        rec.child("sched.admit", || sched.admit(request));
        let selected = rec.child("sched.select", || sched.select(t, &mut rng));
        let selected = selected.expect("a backlogged scheduler selects");
        rec.child("sched.complete", || {
            sched.complete(&Completion {
                request: selected,
                start_ns: t,
                finish_ns: t + 1_000,
            })
        });

        if op.kind != Kind::Stat {
            // Read the range and write the same bytes back: both copies are
            // timed and the file's content does not change.
            if let Ok(d) = rec.child("fs.read_at", || fs.read_at(&path, op.offset, op.len)) {
                let _ = rec.child("fs.write_at", || fs.write_at(&path, op.offset, &d, now()));
            }
        }
        rec.close();
    }
    drop(near);
    echo.join().expect("echo thread exits cleanly");

    let t = self_times(spans);
    let us = |name: &str| {
        t.get(name).map_or(0.0, |v| {
            median(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
        })
    };
    let ns = |name: &str| us(name) * 1e3;
    let core_op: Vec<f64> = t["core.submit"]
        .iter()
        .zip(&t["core.poll"])
        .map(|(s, p)| (s + p) as f64 / 1e3)
        .collect();
    let fs_ns: u64 = ["fs.read_at", "fs.write_at"]
        .iter()
        .filter_map(|n| t.get(n))
        .flatten()
        .sum();
    let fs_calls = ["fs.read_at", "fs.write_at"]
        .iter()
        .filter_map(|n| t.get(n))
        .map(Vec::len)
        .sum::<usize>();
    Replay {
        client_call_us: us("client.call"),
        net_rtt_us: us("net.rtt"),
        core_submit_us: us("core.submit"),
        core_poll_us: us("core.poll"),
        core_op_us: median(&core_op),
        sched_admit_ns: ns("sched.admit"),
        sched_select_ns: ns("sched.select"),
        sched_complete_ns: ns("sched.complete"),
        sched_register_us: median(&register),
        fs_len: spec.block_len,
        fs_read_us: us("fs.read_at"),
        fs_write_us: us("fs.write_at"),
        fs_copy_gib_s: (fs_calls as u64 * spec.block_len) as f64
            / (1u64 << 30) as f64
            / (fs_ns.max(1) as f64 / 1e9),
    }
}

fn kind_of(op: &Op) -> themis_core::request::OpKind {
    use themis_core::request::OpKind;
    match op.kind {
        Kind::Read => OpKind::Read,
        Kind::Write => OpKind::Write,
        Kind::Stat => OpKind::Stat,
    }
}
