//! The storage daemon: one [`BlockStore`] served over TCP.
//!
//! A daemon owns exactly one store (in production a
//! [`DiskStore`](galloper_dfs::DiskStore) root; in tests any
//! [`BlockStore`]) and answers the daemon-plane requests of
//! [`proto`](crate::proto) with a thread per connection. Writes take
//! the store's write lock; reads share a read lock, so concurrent
//! gateway reads against one daemon proceed in parallel.
//!
//! [`Daemon::spawn`] returns a [`DaemonHandle`] whose
//! [`kill`](DaemonHandle::kill) stops service promptly — the accept
//! loop wakes, worker threads notice within their poll interval, and
//! open connections drop without answering — which is how tests model
//! a machine loss without managing OS processes.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use galloper_dfs::{BlockGet, BlockStore};
use galloper_obs::{global, global_trace, op, Json};

use crate::frame::FrameReader;
use crate::proto::{ErrorKind, NodeVitals, ProtocolError, Request, Response, PROTO_VERSION};

/// How often a blocked worker wakes to check for shutdown.
const POLL: Duration = Duration::from_millis(100);

/// When this process started serving (first daemon spawn/run). Vitals
/// report uptime relative to it; a process that never served reports
/// uptime from its first stats/probe instead, which is the same thing
/// for every real topology (serving starts immediately).
fn service_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Milliseconds since [`service_start`].
pub(crate) fn service_uptime_ms() -> u64 {
    service_start().elapsed().as_millis() as u64
}

/// This node's wire vitals.
pub(crate) fn node_vitals() -> NodeVitals {
    NodeVitals {
        version: PROTO_VERSION,
        uptime_ms: service_uptime_ms(),
    }
}

/// Builds the daemon's stats document: vitals, store health, the full
/// registry export, and (when tracing is on) the buffered trace events
/// — everything a scraper needs to merge this node into a cluster view
/// and stitch its spans into cross-process traces. `now_us` is this
/// process's trace-ring clock at build time, so consumers can align
/// per-process epochs.
pub fn node_stats_doc<S: BlockStore>(store: &RwLock<S>) -> Json {
    let (blocks, bytes) = {
        let s = store.read().unwrap_or_else(|e| e.into_inner());
        match s.probe() {
            Ok(h) => (h.blocks, h.bytes),
            Err(_) => (0, 0),
        }
    };
    let ring = global_trace();
    let mut doc = Json::object()
        .field("role", "daemon")
        .field("version", PROTO_VERSION)
        .field("uptime_ms", service_uptime_ms())
        .field("now_us", ring.now_us())
        .field("blocks", blocks)
        .field("bytes", bytes)
        .field("metrics", global().export().to_json());
    if ring.is_enabled() {
        let events: Vec<Json> = ring.events().iter().map(|e| e.to_json()).collect();
        doc = doc.field("trace", Json::Arr(events));
    }
    doc
}

/// Answers one daemon-plane request against the store. Shared with the
/// CLI's foreground `galloper daemon` loop.
pub fn handle_block_request<S: BlockStore>(store: &RwLock<S>, req: &Request) -> Response {
    match req {
        Request::PutBlock { key, bytes } => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            match s.put_block(*key, bytes) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err {
                    kind: ErrorKind::Store,
                    message: e.to_string(),
                },
            }
        }
        Request::GetBlock { key } => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.get_block(*key) {
                Ok(BlockGet::Ok(bytes)) => Response::Block(bytes),
                Ok(BlockGet::Corrupt) => Response::Corrupt,
                Ok(BlockGet::Missing) => Response::Missing,
                Err(e) => Response::Err {
                    kind: ErrorKind::Store,
                    message: e.to_string(),
                },
            }
        }
        Request::DeleteBlock { key } => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            match s.delete_block(*key) {
                Ok(existed) => Response::Deleted(existed),
                Err(e) => Response::Err {
                    kind: ErrorKind::Store,
                    message: e.to_string(),
                },
            }
        }
        Request::ScanBlocks => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.scan_blocks() {
                Ok(keys) => Response::Keys(keys),
                Err(e) => Response::Err {
                    kind: ErrorKind::Store,
                    message: e.to_string(),
                },
            }
        }
        Request::Probe => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.probe() {
                Ok(h) => Response::Health {
                    blocks: h.blocks,
                    bytes: h.bytes,
                    vitals: Some(node_vitals()),
                },
                Err(e) => Response::Err {
                    kind: ErrorKind::Store,
                    message: e.to_string(),
                },
            }
        }
        Request::Stats => Response::Stats(node_stats_doc(store).render().into_bytes()),
        Request::Wipe => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            s.wipe();
            Response::Ok
        }
        Request::Ping => Response::Ok,
        Request::PutObject { .. }
        | Request::GetObject { .. }
        | Request::PutChunk { .. }
        | Request::GetChunk { .. } => Response::Err {
            kind: ErrorKind::Protocol,
            message: "object-plane request sent to a storage daemon".into(),
        },
    }
}

/// A running daemon (see [`Daemon::spawn`]).
#[derive(Debug)]
pub struct DaemonHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Arc<AtomicUsize>,
    accept: Option<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the daemon: no further requests are answered once this
    /// returns (waits for in-flight workers to park, bounded by a few
    /// poll intervals).
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.workers.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The storage-daemon server.
pub struct Daemon;

impl Daemon {
    /// Serves `store` on `listener` from background threads, returning
    /// immediately. One thread per connection; each worker polls for
    /// shutdown every 100 ms while idle.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the listener's local address cannot be
    /// read.
    pub fn spawn<S>(listener: TcpListener, store: S) -> Result<DaemonHandle, ProtocolError>
    where
        S: BlockStore + Send + Sync + 'static,
    {
        service_start();
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(AtomicUsize::new(0));
        let store = Arc::new(RwLock::new(store));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let workers = Arc::clone(&workers);
            thread::Builder::new()
                .name(format!("daemon-accept-{addr}"))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        global().counter("net.daemon.connections").inc();
                        let shutdown = Arc::clone(&shutdown);
                        let conn_workers = Arc::clone(&workers);
                        let store = Arc::clone(&store);
                        workers.fetch_add(1, Ordering::SeqCst);
                        // Cloned before the spawn: a failed spawn drops
                        // its closure — and the stream captured in it —
                        // so this duplicate is the only way to still
                        // answer the client on that path.
                        let reply = stream.try_clone();
                        let spawned =
                            thread::Builder::new()
                                .name("daemon-conn".into())
                                .spawn(move || {
                                    serve_conn(stream, &store, &shutdown);
                                    conn_workers.fetch_sub(1, Ordering::SeqCst);
                                });
                        if spawned.is_err() {
                            workers.fetch_sub(1, Ordering::SeqCst);
                            global().counter("net.daemon.spawn_failures").inc();
                            // Thread exhaustion is transient: tell the
                            // client to back off and retry instead of
                            // leaving it an unexplained EOF.
                            if let Ok(mut s) = reply {
                                let _ = respond(&mut s, &spawn_refusal());
                            }
                        }
                    }
                })?
        };
        Ok(DaemonHandle {
            addr,
            shutdown,
            workers,
            accept: Some(accept),
        })
    }

    /// Serves `store` on `listener` from the calling thread, forever
    /// (the foreground loop behind `galloper daemon`). Never returns
    /// except on listener failure.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if accepting fails fatally.
    pub fn run<S>(listener: TcpListener, store: S) -> Result<(), ProtocolError>
    where
        S: BlockStore + Send + Sync + 'static,
    {
        service_start();
        let shutdown = Arc::new(AtomicBool::new(false));
        let store = Arc::new(RwLock::new(store));
        for stream in listener.incoming() {
            let stream = stream?;
            global().counter("net.daemon.connections").inc();
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("daemon-conn".into())
                .spawn(move || serve_conn(stream, &store, &shutdown))?;
        }
        Ok(())
    }
}

/// Drives one connection until the peer leaves, an unrecoverable
/// protocol error occurs, or shutdown is flagged.
///
/// Incoming bytes go through a [`FrameReader`] fed by short timed
/// reads, so the shutdown flag is polled every [`POLL`] without ever
/// losing bytes to a timeout that fires mid-frame (a plain `read_exact`
/// under a read timeout would desynchronize the stream there).
fn serve_conn<S: BlockStore>(stream: TcpStream, store: &RwLock<S>, shutdown: &AtomicBool) {
    let conns = global().gauge("net.daemon.open_connections");
    conns.add(1);
    serve_conn_inner(stream, store, shutdown);
    conns.add(-1);
}

fn serve_conn_inner<S: BlockStore>(
    mut stream: TcpStream,
    store: &RwLock<S>,
    shutdown: &AtomicBool,
) {
    use std::io::Read as _;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        while let Some(payload) = frames.pop() {
            if shutdown.load(Ordering::SeqCst) {
                // Killed between arrival and dispatch: model a dead
                // machine, which never answers.
                return;
            }
            let (req, ctx) = match Request::decode_with_ctx(&payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    // Malformed/unknown traffic: answer with a typed
                    // refusal, then drop the connection —
                    // resynchronizing a broken frame stream is not
                    // possible.
                    global().counter("net.daemon.protocol_errors").inc();
                    let _ = respond(&mut stream, &protocol_refusal(&e));
                    return;
                }
            };
            global().counter("net.daemon.requests").inc();
            let resp = {
                // Adopt the client's operation context (if it sent
                // one), so the span below — and everything the store
                // records under it — joins the originating request's
                // trace tree instead of starting a disconnected op.
                let _ctx = ctx.map(|c| {
                    op::install(op::OpContext {
                        op: c.op,
                        span: c.span,
                    })
                });
                let _span = op::span("daemon.request", "net");
                let inflight = global().gauge("net.daemon.inflight");
                inflight.add(1);
                let started = Instant::now();
                let resp = handle_block_request(store, &req);
                global()
                    .histogram("net.daemon.request_us")
                    .record(started.elapsed().as_micros() as u64);
                inflight.add(-1);
                resp
            };
            if respond(&mut stream, &resp).is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer went away
            Ok(n) => {
                if let Err(e) = frames.push(&chunk[..n]) {
                    // Oversize announcement: refuse and drop.
                    global().counter("net.daemon.protocol_errors").inc();
                    let _ = respond(&mut stream, &protocol_refusal(&e));
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: nothing arrived within POLL.
            }
            Err(_) => return,
        }
    }
}

/// The reply sent when a worker thread cannot be spawned for a freshly
/// accepted connection — retryable by construction.
pub(crate) fn spawn_refusal() -> Response {
    Response::Err {
        kind: ErrorKind::Busy,
        message: "worker thread spawn failed; retry with backoff".into(),
    }
}

fn protocol_refusal(e: &ProtocolError) -> Response {
    Response::Err {
        kind: ErrorKind::Protocol,
        message: e.to_string(),
    }
}

fn respond(stream: &mut TcpStream, resp: &Response) -> Result<(), ProtocolError> {
    crate::frame::write_frame(stream, &resp.encode())
}
