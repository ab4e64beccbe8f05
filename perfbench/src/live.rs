//! The live path: set-up of a threaded `Deployment` and the closed-loop
//! drivers that load it, checking every reply as it arrives.

use crate::gen::{Kind, Op, Pattern, Stream};
use crate::procfs;
use crate::trace::Span;
use crate::workload::{Name, Spec, FLUSH_EVERY, HIGH_WATERMARK};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use themis_client::{Namespace, ServerLink, ThemisClient};
use themis_core::entity::JobMeta;
use themis_net::message::{ClientMessage, FsOp, FsReply, ServerMessage};
use themis_server::{ClientConnection, Deployment};

/// A reply slower than this counts every request still in flight as timed
/// out and ends the window.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Job id of the control client (snapshots, status); it sends no I/O.
const CONTROL_JOB: u64 = 1 << 40;

/// Adapts a deployment connection to the client crate's `ServerLink`.
pub struct Link(pub ClientConnection);

impl ServerLink for Link {
    fn send(&self, msg: ClientMessage) {
        self.0.send(msg);
    }
    fn recv(&self, timeout: Duration) -> Option<ServerMessage> {
        self.0.recv_timeout(timeout)
    }
}

/// How the workload's requests reach the server.
pub enum Data {
    /// Raw protocol: every tenant multiplexed on one connection.
    Raw(ClientConnection),
    /// The POSIX client path (`ThemisClient`), one call at a time.
    Posix(ThemisClient<Link>),
}

/// A running deployment with its data path and a separate control client.
pub struct Rig {
    pub dep: Deployment,
    pub data: Data,
    pub control: ThemisClient<Link>,
}

/// Starts a one-server deployment, prefills it and registers every tenant.
/// For the staged workload, also waits until the prefill has drained and the
/// shard has been evicted down to its high watermark, so the window starts
/// in the steady state.
pub fn setup(spec: &Spec, pattern: &Pattern) -> Rig {
    let dep = Deployment::start(1, |_| spec.server_config());
    spec.prefill(dep.fs(), pattern);
    let control = ThemisClient::new(
        JobMeta::new(CONTROL_JOB, 0u32, 0u32, 1),
        vec![Link(dep.connect(0))],
        Namespace::default_fs(),
    );
    let data = if spec.name == Name::StagedSpill {
        let client = ThemisClient::new(
            spec.tenants[0],
            vec![Link(dep.connect(0))],
            Namespace::default_fs(),
        );
        assert_eq!(client.hello().len(), 1, "server acknowledges the client");
        client
            .flush(&posix_path(spec, 0))
            .expect("prefill flush succeeds");
        let deadline = Instant::now() + Duration::from_secs(60);
        while control
            .drain_status(0)
            .expect("staging status")
            .resident_bytes
            > HIGH_WATERMARK
        {
            assert!(
                Instant::now() < deadline,
                "shard never evicted to its watermark"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        Data::Posix(client)
    } else {
        let conn = dep.connect(0);
        for &meta in &spec.tenants {
            conn.send(ClientMessage::Hello { meta });
        }
        for _ in &spec.tenants {
            match conn.recv_timeout(REPLY_TIMEOUT) {
                Some(ServerMessage::Ack { .. }) => {}
                other => panic!("tenant registration failed: {other:?}"),
            }
        }
        Data::Raw(conn)
    };
    Rig { dep, data, control }
}

fn posix_path(spec: &Spec, file: u32) -> String {
    format!("/fs{}", spec.path(file))
}

/// Failures seen so far; every one counts against `error_rate`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub errors: u64,
    pub timeouts: u64,
    pub mismatches: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.errors + self.timeouts + self.mismatches
    }
}

/// The version of every block, so each read can be checked against the
/// bytes of the last write acknowledged before it was sent.
pub struct Checker {
    pattern: Pattern,
    versions: Vec<u32>,
    blocks: u64,
    block_len: u64,
}

/// Version of a block whose last write failed: its content is unknown.
const UNKNOWN: u32 = u32::MAX;

impl Checker {
    pub fn new(spec: &Spec, pattern: Pattern) -> Self {
        Checker {
            pattern,
            versions: vec![0; (spec.files as u64 * spec.blocks_per_file()) as usize],
            blocks: spec.blocks_per_file(),
            block_len: spec.block_len,
        }
    }

    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    fn slot(&self, op: &Op) -> usize {
        (op.file as u64 * self.blocks + op.offset / self.block_len) as usize
    }

    /// The next version of the op's block and its bytes.
    pub fn begin_write(&mut self, op: &Op) -> (u32, Vec<u8>) {
        let slot = self.slot(op);
        let v = self.versions[slot].wrapping_add(1) % UNKNOWN;
        self.versions[slot] = v;
        let data = self
            .pattern
            .block(op.file, op.offset / self.block_len, v, self.block_len);
        (v, data)
    }

    pub fn write_failed(&mut self, op: &Op) {
        let slot = self.slot(op);
        self.versions[slot] = UNKNOWN;
    }

    pub fn version(&self, op: &Op) -> u32 {
        self.versions[self.slot(op)]
    }

    /// Whether `data` is what a read of `op` must return, given the block's
    /// version when the read was sent.
    pub fn read_ok(&self, op: &Op, version: u32, data: &[u8]) -> bool {
        version == UNKNOWN
            || self.pattern.matches(
                data,
                op.file,
                op.offset / self.block_len,
                version,
                op.offset % self.block_len,
                op.len,
            )
    }

    /// Checks every block of every file through `read`, against the latest
    /// version. Returns the number of blocks whose bytes differ.
    pub fn verify_all(
        &self,
        spec: &Spec,
        mut read: impl FnMut(u32, u64) -> Option<Vec<u8>>,
    ) -> u64 {
        let mut bad = 0;
        for file in 0..spec.files {
            for block in 0..self.blocks {
                let op = Op {
                    tenant: 0,
                    kind: Kind::Read,
                    file,
                    offset: block * self.block_len,
                    len: self.block_len,
                };
                let got = read(file, op.offset);
                let ok = got
                    .as_ref()
                    .is_some_and(|d| self.read_ok(&op, self.version(&op), d));
                if !ok {
                    eprintln!(
                        "perfbench: file {file} block {block} does not hold version {}",
                        self.version(&op)
                    );
                }
                bad += u64::from(!ok);
            }
        }
        bad
    }
}

/// One second of a window: the unit the end-to-end medians are taken over,
/// so a few seconds disturbed by the host do not move the result.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    pub ops: u64,
    pub bytes: u64,
    /// Payload bytes completed per tenant index.
    pub tenant_bytes: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
}

/// Length of a [`Slice`].
pub const SLICE: Duration = Duration::from_secs(1);

/// What one window measured. Latencies are in ns and sorted.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    pub ops: u64,
    pub bytes: u64,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub all_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
    /// Whole seconds of the window; a partial last second is dropped.
    pub slices: Vec<Slice>,
    /// Payload bytes completed per tenant index.
    pub tenant_bytes: Vec<u64>,
    /// Time from a reply's arrival to the driver's next send.
    pub resubmit_ns: Vec<u64>,
    pub driver_cpu_s: f64,
    pub spans: Vec<Span>,
}

impl Window {
    fn new(tenants: usize) -> Self {
        Window {
            tenant_bytes: vec![0; tenants],
            ..Window::default()
        }
    }

    /// Records a completed op whose reply arrived `since_start` into the
    /// window.
    fn record(&mut self, op: &Op, ns: u64, since_start: Duration) {
        let i = (since_start.as_nanos() / SLICE.as_nanos()) as usize;
        if self.slices.len() <= i {
            let empty = Slice {
                tenant_bytes: vec![0; self.tenant_bytes.len()],
                ..Slice::default()
            };
            self.slices.resize(i + 1, empty);
        }
        let slice = &mut self.slices[i];
        self.ops += 1;
        slice.ops += 1;
        match op.kind {
            Kind::Read => {
                self.read_ns.push(ns);
                slice.read_ns.push(ns);
            }
            Kind::Write => {
                self.write_ns.push(ns);
                slice.write_ns.push(ns);
            }
            Kind::Stat => {}
        }
        self.all_ns.push(ns);
        if op.kind != Kind::Stat {
            self.bytes += op.len;
            slice.bytes += op.len;
            slice.tenant_bytes[op.tenant as usize] += op.len;
            self.tenant_bytes[op.tenant as usize] += op.len;
        }
    }

    fn finish(mut self, seconds: f64, cpu0: u64) -> Self {
        self.seconds = seconds;
        self.driver_cpu_s = procfs::thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        self.slices
            .truncate((seconds / SLICE.as_secs_f64()) as usize);
        let slices = self
            .slices
            .iter_mut()
            .flat_map(|s| [&mut s.read_ns, &mut s.write_ns]);
        for v in [
            &mut self.read_ns,
            &mut self.write_ns,
            &mut self.all_ns,
            &mut self.flush_ns,
            &mut self.resubmit_ns,
        ]
        .into_iter()
        .chain(slices)
        {
            v.sort_unstable();
        }
        self
    }
}

/// When a window measures. Replies (or, on the POSIX path, calls) that end
/// inside `[warmup, warmup + length)` after the start are counted; with no
/// length the window runs until every stream is exhausted.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub length: Option<Duration>,
    pub trace: bool,
}

struct Flight {
    stream: usize,
    op: Op,
    version: u32,
    sent: Instant,
}

/// Readers and writer of one block in flight.
#[derive(Default)]
struct Busy {
    readers: u32,
    writer: bool,
}

/// State of the raw closed loop between replies.
struct RawLoop<'a> {
    spec: &'a Spec,
    conn: &'a ClientConnection,
    paths: Vec<String>,
    inflight: HashMap<u64, Flight>,
    busy: HashMap<usize, Busy>,
    /// Per stream, an op waiting for a conflicting op to finish.
    held: Vec<Option<Op>>,
    depth: Vec<usize>,
    next_id: u64,
}

impl RawLoop<'_> {
    /// Sends until every stream is at depth, exhausted or blocked. Returns
    /// when the first request went out, if any did.
    fn fill(
        &mut self,
        streams: &mut [Stream],
        chk: &mut Checker,
        counts: &mut Counts,
    ) -> Option<Instant> {
        let mut first = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            while self.depth[s] < self.spec.depth {
                let Some(op) = self.held[s].take().or_else(|| stream.next_op()) else {
                    break;
                };
                let b = self.busy.entry(chk.slot(&op)).or_default();
                let blocked = match op.kind {
                    Kind::Read => b.writer,
                    Kind::Write => b.writer || b.readers > 0,
                    Kind::Stat => false,
                };
                if blocked {
                    self.held[s] = Some(op);
                    break;
                }
                let path = self.paths[op.file as usize].clone();
                let (version, fs_op) = match op.kind {
                    Kind::Read => {
                        b.readers += 1;
                        let fs_op = FsOp::ReadAt {
                            path,
                            offset: op.offset,
                            len: op.len,
                        };
                        (chk.version(&op), fs_op)
                    }
                    Kind::Write => {
                        b.writer = true;
                        let (v, data) = chk.begin_write(&op);
                        let fs_op = FsOp::WriteAt {
                            path,
                            offset: op.offset,
                            data,
                        };
                        (v, fs_op)
                    }
                    Kind::Stat => (0, FsOp::Stat { path }),
                };
                let request_id = self.next_id;
                self.next_id += 1;
                let sent = Instant::now();
                self.conn.send(ClientMessage::Io {
                    request_id,
                    meta: self.spec.tenants[op.tenant as usize],
                    op: fs_op,
                });
                counts.attempted += 1;
                first.get_or_insert(sent);
                self.depth[s] += 1;
                self.inflight.insert(
                    request_id,
                    Flight {
                        stream: s,
                        op,
                        version,
                        sent,
                    },
                );
            }
        }
        first
    }
}

/// Closed loop over one raw connection: each stream keeps `spec.depth`
/// requests in flight and sends its next op as soon as one of its replies
/// arrives. An op that would race an in-flight op on the same block (either
/// one a write) waits for it, so every read has exactly one right answer.
pub fn run_raw(
    spec: &Spec,
    conn: &ClientConnection,
    chk: &mut Checker,
    counts: &mut Counts,
    streams: &mut [Stream],
    timing: Timing,
    epoch: Instant,
) -> Window {
    let mut w = Window::new(spec.tenants.len());
    let mut l = RawLoop {
        spec,
        conn,
        paths: (0..spec.files).map(|f| spec.path(f)).collect(),
        inflight: HashMap::new(),
        busy: HashMap::new(),
        held: vec![None; streams.len()],
        depth: vec![0; streams.len()],
        next_id: 1,
    };
    let start = Instant::now();
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = start + timing.warmup;
    let t1 = timing.length.map(|l| t0 + l);
    let mut last = start;
    l.fill(streams, chk, counts);
    while !l.inflight.is_empty() {
        let msg = conn.recv_timeout(REPLY_TIMEOUT);
        let arrive = Instant::now();
        let (request_id, reply) = match msg {
            Some(ServerMessage::IoReply { request_id, reply }) => (request_id, reply),
            Some(_) => {
                counts.errors += 1;
                continue;
            }
            None => {
                counts.timeouts += l.inflight.len() as u64;
                break;
            }
        };
        let Some(f) = l.inflight.remove(&request_id) else {
            counts.errors += 1;
            continue;
        };
        l.depth[f.stream] -= 1;
        if f.op.kind != Kind::Stat {
            let slot = chk.slot(&f.op);
            let b = l.busy.get_mut(&slot).expect("in-flight block is busy");
            match f.op.kind {
                Kind::Read => b.readers -= 1,
                _ => b.writer = false,
            }
        }
        let ok = judge(spec, chk, counts, &f.op, f.version, reply);
        if ok && arrive >= t0 && t1.is_none_or(|t1| arrive < t1) {
            let ns = arrive.duration_since(f.sent).as_nanos() as u64;
            w.record(&f.op, ns, arrive.duration_since(t0));
            last = arrive;
            if timing.trace {
                w.spans.push(Span::root(
                    request_id,
                    "live.request",
                    epoch,
                    f.sent,
                    arrive,
                ));
            }
        }
        if t1.is_none_or(|t1| arrive < t1) {
            if let Some(sent) = l.fill(streams, chk, counts) {
                if arrive >= t0 {
                    w.resubmit_ns
                        .push(sent.duration_since(arrive).as_nanos() as u64);
                }
            }
        }
    }
    let seconds = match t1 {
        Some(_) => timing.length.expect("timed window").as_secs_f64(),
        None => last.duration_since(t0).as_secs_f64(),
    };
    w.finish(seconds, cpu0)
}

/// Checks one reply, counting what is wrong with it. Returns whether it is
/// right.
pub fn judge(
    spec: &Spec,
    chk: &mut Checker,
    counts: &mut Counts,
    op: &Op,
    version: u32,
    reply: FsReply,
) -> bool {
    let ok = match (op.kind, reply) {
        (_, FsReply::Error(_)) => {
            counts.errors += 1;
            if op.kind == Kind::Write {
                chk.write_failed(op);
            }
            return false;
        }
        (Kind::Write, FsReply::Count(n)) => n == op.len,
        (Kind::Read, FsReply::Data(d)) => chk.read_ok(op, version, &d),
        (Kind::Stat, FsReply::Stat(s)) => s.size == spec.file_len && !s.is_dir,
        _ => false,
    };
    if !ok {
        eprintln!("perfbench: wrong reply to {op:?} (block version {version})");
        counts.mismatches += 1;
        if op.kind == Kind::Write {
            chk.write_failed(op);
        }
    }
    ok
}

/// Closed loop through the POSIX client, one call at a time: `read_at` and
/// `write_at` from the stream, and a `flush` of the file after every
/// [`FLUSH_EVERY`] writes.
pub fn run_posix(
    spec: &Spec,
    client: &ThemisClient<Link>,
    chk: &mut Checker,
    counts: &mut Counts,
    stream: &mut Stream,
    timing: Timing,
    epoch: Instant,
) -> Window {
    let path = posix_path(spec, 0);
    let mut w = Window::new(spec.tenants.len());
    let start = Instant::now();
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = start + timing.warmup;
    let t1 = t0 + timing.length.expect("the POSIX loop is timed");
    let mut writes = 0u64;
    let mut returned: Option<Instant> = None;
    let mut trace_id = 0u64;
    loop {
        if Instant::now() >= t1 {
            break;
        }
        let op = stream.next_op().expect("infinite stream");
        let (version, data) = match op.kind {
            Kind::Write => {
                let (v, d) = chk.begin_write(&op);
                (v, Some(d))
            }
            _ => (chk.version(&op), None),
        };
        let sent = Instant::now();
        if let Some(r) = returned.filter(|&r| r >= t0) {
            w.resubmit_ns.push(sent.duration_since(r).as_nanos() as u64);
        }
        counts.attempted += 1;
        let ok = match &data {
            Some(d) => match client.write_at(&path, op.offset, d) {
                Ok(n) if n == op.len => true,
                Ok(_) => {
                    counts.mismatches += 1;
                    false
                }
                Err(_) => {
                    counts.errors += 1;
                    false
                }
            },
            None => match client.read_at(&path, op.offset, op.len) {
                Ok(d) if chk.read_ok(&op, version, &d) => true,
                Ok(_) => {
                    eprintln!("perfbench: read {op:?} did not return version {version}");
                    counts.mismatches += 1;
                    false
                }
                Err(_) => {
                    counts.errors += 1;
                    false
                }
            },
        };
        let arrive = Instant::now();
        returned = Some(arrive);
        if !ok && op.kind == Kind::Write {
            chk.write_failed(&op);
        }
        trace_id += 1;
        if ok && arrive >= t0 && arrive < t1 {
            w.record(
                &op,
                arrive.duration_since(sent).as_nanos() as u64,
                arrive.duration_since(t0),
            );
            if timing.trace {
                w.spans
                    .push(Span::root(trace_id, "live.request", epoch, sent, arrive));
            }
        }
        if op.kind == Kind::Write {
            writes += 1;
            if writes.is_multiple_of(FLUSH_EVERY) {
                counts.attempted += 1;
                let f0 = Instant::now();
                match client.flush(&path) {
                    Ok(_) if f0 >= t0 => w.flush_ns.push(f0.elapsed().as_nanos() as u64),
                    Ok(_) => {}
                    Err(_) => counts.errors += 1,
                }
                returned = Some(Instant::now());
            }
        }
    }
    w.finish(timing.length.expect("timed").as_secs_f64(), cpu0)
}
