//! The threaded server runtime: runs one or more [`ServerCore`]s on real
//! threads, accepts client connections over in-process endpoints, and
//! performs the λ-sync all-gather over a peer fabric.
//!
//! This is the "live" deployment path used by the examples and integration
//! tests; the large-scale experiments of the paper are replayed on a virtual
//! clock by `themis-sim` using the same scheduler, device and policy code.

use crate::core::{ServerConfig, ServerCore};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use themis_fs::BurstBufferFs;
use themis_net::message::{ClientMessage, ServerMessage};
use themis_net::transport::{channel_pair, Endpoint, PeerFabric};
use themis_net::PeerMessage;
use themis_stage::{BackingStore, CapacityTier};
use themis_telemetry::MetricsRegistry;

/// What a server's inbox carries for one connection.
#[derive(Debug)]
enum Inbound {
    /// A new connection and the server-side endpoint its replies go to.
    /// [`Deployment::connect`] enqueues it before returning, so FIFO order
    /// puts it ahead of the connection's first message.
    Connect(Endpoint<ServerMessage>),
    /// A message from the client.
    Message(ClientMessage),
}

/// An inbox entry tagged with its connection id.
type Tagged = (usize, Inbound);

/// A deployment of one or more ThemisIO servers over a shared burst-buffer
/// file system.
pub struct Deployment {
    fs: BurstBufferFs,
    /// One inbox per server, carrying connects and client messages alike.
    inboxes: Vec<Sender<Tagged>>,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    n_servers: usize,
}

impl Deployment {
    /// Starts `n_servers` server threads sharing one in-memory burst buffer.
    ///
    /// `config_for` produces the configuration of each server (so tests can
    /// give different servers different algorithms or seeds).
    pub fn start(n_servers: usize, config_for: impl Fn(usize) -> ServerConfig) -> Self {
        let n = n_servers.max(1);
        let fs = BurstBufferFs::new(n);
        let fabric = Arc::new(PeerFabric::<PeerMessage>::new(n));
        let stop = Arc::new(AtomicBool::new(false));
        let mut inboxes = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);

        // One shared capacity tier for the whole deployment: the backing
        // file system behind the burst buffer is a single system, so any
        // server can stage in extents a peer drained.
        let mut shared_backing: Option<Arc<dyn BackingStore>> = None;
        // One shared metrics registry likewise: every server records its own
        // series (keyed by server index), so a `MetricsSnapshot` answered by
        // any server covers the whole cluster.
        let registry = MetricsRegistry::new();

        for idx in 0..n {
            let (in_tx, in_rx): (Sender<Tagged>, Receiver<Tagged>) = unbounded();
            inboxes.push(in_tx);
            let config = config_for(idx);
            let backing = config.staging.as_ref().map(|sc| {
                Arc::clone(shared_backing.get_or_insert_with(|| {
                    Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>
                }))
            });
            let core =
                ServerCore::with_telemetry(idx, fs.clone(), config, backing, registry.clone());
            let fabric = Arc::clone(&fabric);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                server_loop(core, in_rx, fabric, stop);
            }));
        }

        Deployment {
            fs,
            inboxes,
            stop,
            threads: Mutex::new(threads),
            n_servers: n,
        }
    }

    /// Number of servers in the deployment.
    pub fn server_count(&self) -> usize {
        self.n_servers
    }

    /// The shared burst-buffer file system (for out-of-band inspection in
    /// tests and examples).
    pub fn fs(&self) -> &BurstBufferFs {
        &self.fs
    }

    /// Opens a connection to server `server_index` and returns the
    /// client-side endpoint plus a message sender tagged with the connection
    /// id expected by that server.
    pub fn connect(&self, server_index: usize) -> ClientConnection {
        let idx = server_index % self.n_servers;
        let (client_end, server_end) = channel_pair::<ServerMessage>();
        // The server thread learns about the new client and its reply
        // endpoint through the same inbox its requests flow through, tagged
        // with the connection id.
        static NEXT_CONN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);
        let conn_id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
        self.inboxes[idx]
            .send((conn_id, Inbound::Connect(server_end)))
            .expect("server thread alive");
        ClientConnection {
            server_index: idx,
            conn_id,
            to_server: self.inboxes[idx].clone(),
            from_server: client_end,
        }
    }

    /// Stops every server thread and waits for them to exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's connection to one server of a [`Deployment`].
pub struct ClientConnection {
    /// Index of the server this connection talks to.
    pub server_index: usize,
    conn_id: usize,
    to_server: Sender<Tagged>,
    from_server: Endpoint<ServerMessage>,
}

impl ClientConnection {
    /// Sends a message to the server.
    pub fn send(&self, msg: ClientMessage) {
        let _ = self.to_server.send((self.conn_id, Inbound::Message(msg)));
    }

    /// Blocks until the next message from the server arrives (or the server
    /// shuts down, in which case `None`).
    pub fn recv(&self) -> Option<ServerMessage> {
        self.from_server.recv().ok()
    }

    /// Receives with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ServerMessage> {
        self.from_server.recv_timeout(timeout).ok().flatten()
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn server_loop(
    mut core: ServerCore,
    inbox: Receiver<Tagged>,
    fabric: Arc<PeerFabric<PeerMessage>>,
    stop: Arc<AtomicBool>,
) {
    let epoch = Instant::now();
    let mut clients: std::collections::HashMap<usize, Endpoint<ServerMessage>> =
        std::collections::HashMap::new();
    // Request ids are only unique per connection (every client numbers its
    // own requests from zero), so a route keyed by the raw id would collide
    // as soon as two clients talk to this server concurrently — one side's
    // reply would be misrouted and the other would stall until its timeout.
    // The loop therefore re-tickets each request with a server-unique id
    // before it enters the core and translates back when replying.
    let mut next_ticket: u64 = 0;
    let mut reply_route: std::collections::HashMap<u64, (usize, u64)> =
        std::collections::HashMap::new();
    let mut ticket = move |route: &mut std::collections::HashMap<u64, (usize, u64)>,
                           conn_id: usize,
                           request_id: u64| {
        let t = next_ticket;
        next_ticket += 1;
        route.insert(t, (conn_id, request_id));
        t
    };
    let my_index = core.server_index();

    while !stop.load(Ordering::SeqCst) {
        let now = now_ns(epoch);
        let mut did_work = false;

        // Accept new connections and drain client messages.
        while let Ok((conn_id, inbound)) = inbox.try_recv() {
            did_work = true;
            let msg = match inbound {
                Inbound::Connect(endpoint) => {
                    clients.insert(conn_id, endpoint);
                    continue;
                }
                Inbound::Message(msg) => msg,
            };
            match msg {
                ClientMessage::Hello { meta } | ClientMessage::Heartbeat { meta, .. } => {
                    core.heartbeat(meta, now);
                    if let Some(c) = clients.get(&conn_id) {
                        let _ = c.send(ServerMessage::Ack {
                            policy: core.policy().to_string(),
                            epoch: core.policy_epoch(),
                        });
                    }
                }
                ClientMessage::Bye { meta } => {
                    core.client_bye(meta, now);
                }
                ClientMessage::SetPolicy { request_id, policy } => {
                    let reply = match core.set_policy(policy) {
                        Ok(epoch) => ServerMessage::PolicyChanged {
                            request_id,
                            policy: core.policy().clone(),
                            epoch,
                        },
                        Err(e) => ServerMessage::PolicyRejected {
                            request_id,
                            reason: e.to_string(),
                        },
                    };
                    if let Some(c) = clients.get(&conn_id) {
                        let _ = c.send(reply);
                    }
                }
                ClientMessage::GetPolicy { request_id } => {
                    if let Some(c) = clients.get(&conn_id) {
                        let _ = c.send(ServerMessage::PolicyChanged {
                            request_id,
                            policy: core.policy().clone(),
                            epoch: core.policy_epoch(),
                        });
                    }
                }
                ClientMessage::Io {
                    request_id,
                    meta,
                    op,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.submit(t, meta, op, now);
                }
                ClientMessage::Flush {
                    request_id,
                    meta,
                    path,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.flush(t, meta, &path, now);
                }
                ClientMessage::StageIn {
                    request_id,
                    meta,
                    path,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.stage_in(t, meta, &path, now);
                }
                ClientMessage::DrainStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.drain_status(t);
                }
                ClientMessage::Scrub { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.scrub(t);
                }
                ClientMessage::ScrubStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.scrub_status(t);
                }
                ClientMessage::RebalanceStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.rebalance_status(t);
                }
                ClientMessage::ReplicateStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.replicate_status(t);
                }
                ClientMessage::MetricsSnapshot { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.metrics_snapshot(t, now);
                }
                ClientMessage::TraceDump {
                    request_id,
                    max_events,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.trace_dump(t, max_events);
                }
            }
        }

        // Worker loop: serve whatever the scheduler releases (foreground
        // replies plus, with staging, drain progress).
        for ready in core.poll(now) {
            did_work = true;
            if let Some((conn_id, request_id)) = reply_route.remove(&ready.request_id) {
                if let Some(c) = clients.get(&conn_id) {
                    let _ = c.send(ServerMessage::IoReply {
                        request_id,
                        reply: ready.reply,
                    });
                }
            }
        }

        // Staging acknowledgements that became ready (flush/stage-in/status).
        for stage in core.take_stage_replies() {
            did_work = true;
            if let Some((conn_id, request_id)) = reply_route.remove(&stage.request_id) {
                if let Some(c) = clients.get(&conn_id) {
                    let _ = c.send(ServerMessage::Stage {
                        request_id,
                        reply: stage.reply,
                    });
                }
            }
        }

        // Job monitor timeout scan + λ-sync.
        core.expire_jobs(now);
        if core.sync_due(now) {
            fabric.broadcast(
                my_index,
                PeerMessage::JobTable {
                    from_server: my_index,
                    table: core.local_table(),
                    sent_ns: now,
                },
            );
            let peer_tables: Vec<_> = fabric
                .drain(my_index)
                .into_iter()
                .map(|PeerMessage::JobTable { table, .. }| table)
                .collect();
            core.absorb_peer_tables(peer_tables.iter(), now);
        }

        if !did_work {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::entity::JobMeta;
    use themis_net::message::{FsOp, FsReply};

    #[test]
    fn deployment_serves_io_end_to_end() {
        let dep = Deployment::start(2, |_| ServerConfig::default());
        let conn = dep.connect(0);
        let meta = JobMeta::new(1u64, 1u32, 1u32, 4);
        conn.send(ClientMessage::Hello { meta });
        assert!(matches!(
            conn.recv_timeout(Duration::from_secs(5)),
            Some(ServerMessage::Ack { .. })
        ));
        conn.send(ClientMessage::Io {
            request_id: 1,
            meta,
            op: FsOp::Mkdir {
                path: "/out".into(),
            },
        });
        let reply = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            reply,
            ServerMessage::IoReply {
                request_id: 1,
                reply: FsReply::Ok
            }
        ));
        conn.send(ClientMessage::Io {
            request_id: 2,
            meta,
            op: FsOp::WriteAt {
                path: "/out/x".into(),
                offset: 0,
                data: vec![5u8; 1024],
            },
        });
        // WriteAt on a missing file is an error; create it first via open.
        let reply = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            reply,
            ServerMessage::IoReply {
                request_id: 2,
                reply: FsReply::Error(_)
            }
        ));
        conn.send(ClientMessage::Io {
            request_id: 3,
            meta,
            op: FsOp::Open {
                path: "/out/x".into(),
                create: true,
                truncate: false,
                append: false,
            },
        });
        let fd = match conn.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                reply: FsReply::Fd(fd),
                ..
            } => fd,
            other => panic!("unexpected {other:?}"),
        };
        conn.send(ClientMessage::Io {
            request_id: 4,
            meta,
            op: FsOp::Write {
                fd,
                data: vec![5u8; 1024],
            },
        });
        match conn.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                reply: FsReply::Count(n),
                ..
            } => assert_eq!(n, 1024),
            other => panic!("unexpected {other:?}"),
        }
        // The data is visible through the shared fs from the test side.
        assert_eq!(dep.fs().stat("/out/x").unwrap().size, 1024);
        conn.send(ClientMessage::Bye { meta });
        dep.shutdown();
    }

    /// Every client numbers its own requests from zero, so two concurrent
    /// connections always collide on raw request ids. The server must route
    /// each reply to the connection that sent the request, echoing the
    /// sender's own id — not whichever connection registered the id last.
    #[test]
    fn colliding_request_ids_route_to_their_own_connections() {
        let dep = Deployment::start(1, |_| ServerConfig::default());
        let a = dep.connect(0);
        let b = dep.connect(0);
        let meta_a = JobMeta::new(1u64, 1u32, 1u32, 4);
        let meta_b = JobMeta::new(2u64, 2u32, 1u32, 4);

        // Same request id, different ops: a's mkdir succeeds, b's stat of a
        // missing path errors, so a swapped reply is detectable by payload.
        a.send(ClientMessage::Io {
            request_id: 7,
            meta: meta_a,
            op: FsOp::Mkdir { path: "/a".into() },
        });
        b.send(ClientMessage::Io {
            request_id: 7,
            meta: meta_b,
            op: FsOp::Stat {
                path: "/missing".into(),
            },
        });
        match a.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                request_id: 7,
                reply: FsReply::Ok,
            } => {}
            other => panic!("client a got {other:?}"),
        }
        match b.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                request_id: 7,
                reply: FsReply::Error(_),
            } => {}
            other => panic!("client b got {other:?}"),
        }
        dep.shutdown();
    }

    /// A connection's registration travels through the same inbox as its
    /// messages, ahead of them: a client that sends `Hello` the instant
    /// `connect` returns must always get its `Ack`, however many other
    /// connections race it.
    #[test]
    fn hello_right_after_connect_is_always_acked() {
        let dep = Deployment::start(1, |_| ServerConfig::default());
        std::thread::scope(|scope| {
            for job in 1..=64u64 {
                let dep = &dep;
                scope.spawn(move || {
                    let conn = dep.connect(0);
                    conn.send(ClientMessage::Hello {
                        meta: JobMeta::new(job, job as u32, 1u32, 1),
                    });
                    match conn.recv_timeout(Duration::from_secs(10)) {
                        Some(ServerMessage::Ack { .. }) => {}
                        other => panic!("connection {job} got {other:?}"),
                    }
                });
            }
        });
        dep.shutdown();
    }
}
