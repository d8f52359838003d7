//! The gateway: object-plane TCP service in front of a [`Dfs`].
//!
//! Clients speak the gateway plane of [`proto`](crate::proto)
//! (`PutObject` / `PutChunk`, `GetObject` / `GetChunk`, `Ping`); the
//! gateway runs the full erasure-coding pipeline against its block
//! stores — normally [`RemoteStore`](crate::RemoteStore) clients for a
//! set of storage daemons — and streams the result back. Reads share the `Dfs` read
//! lock and run concurrently; writes serialize on the write lock.
//!
//! ## Admission control
//!
//! Total in-flight requests are bounded by a counting semaphore of
//! `max_inflight` slots (`GALLOPER_MAX_INFLIGHT`, default
//! [`DEFAULT_MAX_INFLIGHT`]). A request that cannot take a slot within
//! the admission timeout (`GALLOPER_ADMISSION_MS`, default
//! [`ADMISSION_TIMEOUT`]) is answered with a typed
//! [`ErrorKind::Busy`] refusal instead of queueing unboundedly — the
//! client sees fast, classed pushback and can retry with backoff.
//! Combined with the one-outstanding-request-per-connection discipline
//! of [`Conn`](crate::Conn), this bounds both queue depth and memory:
//! at most `max_inflight` requests hold decode buffers, and each
//! connection holds at most one frame in flight.
//!
//! ## Object transfers
//!
//! Every object transfer is a session of one state machine, and a
//! transfer that fits one chunk window ([`CHUNK_BYTES`]) is its
//! simplest case: one request, one response, no session. A `PutObject`
//! carries the object's length and first chunk, and the `PutChunk`
//! that completes the object commits it; a `GetObject` of an object
//! larger than one window answers `GetBegun` with the first window,
//! and `GetChunk`s pull the rest. Each frame is its own admitted
//! request, so a multi-gigabyte transfer holds an admission slot only
//! while one chunk is being coded, and the gateway's buffering per
//! transfer is one chunk plus the erasure pipeline's coding-group
//! window — never the whole object. Transfer sessions live on the
//! connection that opened them; a connection that drops mid-put has
//! its staged upload aborted and its blocks reclaimed.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use galloper_dfs::{BlockStore, Dfs, DfsError, ErasureCode};
use galloper_obs::{global, global_trace, op, Json};

use crate::daemon::{service_uptime_ms, spawn_refusal};
use crate::frame::FrameReader;
use crate::proto::{ErrorKind, ProtocolError, Request, Response, CHUNK_BYTES, PROTO_VERSION};
use crate::scrape::Scraper;

/// Default admission-queue width.
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// Default for how long a request may wait for an admission slot
/// before being refused with [`ErrorKind::Busy`]. Overridable via
/// `GALLOPER_ADMISSION_MS` (see [`admission_timeout_from_env`]).
pub const ADMISSION_TIMEOUT: Duration = Duration::from_secs(2);

/// Open multi-frame transfers allowed per connection. The `Conn`
/// client drives one transfer at a time; a small allowance covers
/// hand-written clients interleaving a put and a get, while still
/// bounding what one connection can pin. A transfer that fits one
/// chunk window opens no session and is never refused by this bound.
const MAX_STREAM_SESSIONS: usize = 4;

/// How often a blocked worker wakes to check for shutdown.
const POLL: Duration = Duration::from_millis(100);

/// Reads `GALLOPER_ADMISSION_MS` (falling back to
/// [`ADMISSION_TIMEOUT`]); malformed values warn on stderr.
pub fn admission_timeout_from_env() -> Duration {
    match std::env::var("GALLOPER_ADMISSION_MS") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(n) if n > 0 => Duration::from_millis(n),
            _ => {
                eprintln!(
                    "warning: GALLOPER_ADMISSION_MS='{s}' is not a positive integer; \
                     using {}",
                    ADMISSION_TIMEOUT.as_millis()
                );
                ADMISSION_TIMEOUT
            }
        },
        Err(_) => ADMISSION_TIMEOUT,
    }
}

/// Reads `GALLOPER_MAX_INFLIGHT` (falling back to
/// [`DEFAULT_MAX_INFLIGHT`]); malformed values warn on stderr.
pub fn max_inflight_from_env() -> usize {
    match std::env::var("GALLOPER_MAX_INFLIGHT") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "warning: GALLOPER_MAX_INFLIGHT='{s}' is not a positive integer; \
                     using {DEFAULT_MAX_INFLIGHT}"
                );
                DEFAULT_MAX_INFLIGHT
            }
        },
        Err(_) => DEFAULT_MAX_INFLIGHT,
    }
}

/// A counting semaphore over `Mutex` + `Condvar` (std has none).
#[derive(Debug)]
struct Admission {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Admission {
    fn new(slots: usize) -> Admission {
        Admission {
            free: Mutex::new(slots),
            cv: Condvar::new(),
        }
    }

    /// Takes a slot, waiting at most `timeout`. Returns whether a slot
    /// was acquired.
    fn acquire(&self, timeout: Duration) -> bool {
        let guard = self.free.lock().unwrap_or_else(|e| e.into_inner());
        let (mut guard, result) = self
            .cv
            .wait_timeout_while(guard, timeout, |free| *free == 0)
            .unwrap_or_else(|e| e.into_inner());
        if result.timed_out() && *guard == 0 {
            return false;
        }
        *guard -= 1;
        true
    }

    fn release(&self) {
        let mut guard = self.free.lock().unwrap_or_else(|e| e.into_inner());
        *guard += 1;
        self.cv.notify_one();
    }
}

/// The wire failure class for a [`DfsError`] — the stable mapping the
/// gateway stamps into `Err` frames.
pub fn kind_of_dfs(e: &DfsError) -> ErrorKind {
    match e {
        DfsError::NotFound(_) => ErrorKind::NotFound,
        DfsError::AlreadyExists(_) => ErrorKind::AlreadyExists,
        DfsError::OutOfRange { .. } => ErrorKind::OutOfRange,
        DfsError::DataLoss { .. } => ErrorKind::DataLoss,
        DfsError::Unavailable { .. } => ErrorKind::Unavailable,
        DfsError::NotEnoughServers => ErrorKind::NotEnoughServers,
        DfsError::Code(_) => ErrorKind::Code,
        DfsError::NoSuchServer(_) => ErrorKind::Unknown,
        DfsError::Store(_) => ErrorKind::Store,
        _ => ErrorKind::Unknown,
    }
}

/// A running gateway (see [`Gateway::spawn`]).
#[derive(Debug)]
pub struct GatewayHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Arc<AtomicUsize>,
    accept: Option<thread::JoinHandle<()>>,
}

impl GatewayHandle {
    /// The gateway's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the gateway (idempotent; also runs on drop).
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
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

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The object-plane server.
pub struct Gateway;

impl Gateway {
    /// Serves `dfs` on `listener` from background threads with
    /// `max_inflight` admission slots, returning immediately.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the listener's local address cannot be
    /// read.
    pub fn spawn<C, S>(
        listener: TcpListener,
        dfs: Dfs<C, S>,
        max_inflight: usize,
    ) -> Result<GatewayHandle, ProtocolError>
    where
        C: ErasureCode + Send + Sync + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        Gateway::spawn_with_scraper(listener, dfs, max_inflight, None)
    }

    /// As [`Gateway::spawn`], but with an optional [`Scraper`] whose
    /// cluster view the gateway embeds in its `Stats` responses — this
    /// is what makes `galloper stat <gateway>` see the whole cluster
    /// through one socket.
    ///
    /// # Errors
    ///
    /// As [`Gateway::spawn`].
    pub fn spawn_with_scraper<C, S>(
        listener: TcpListener,
        dfs: Dfs<C, S>,
        max_inflight: usize,
        scraper: Option<Arc<Scraper>>,
    ) -> Result<GatewayHandle, ProtocolError>
    where
        C: ErasureCode + Send + Sync + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        // Anchor the uptime epoch before the first request can ask.
        let _ = service_uptime_ms();
        let admission_timeout = admission_timeout_from_env();
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(AtomicUsize::new(0));
        let dfs = Arc::new(RwLock::new(dfs));
        let admission = Arc::new(Admission::new(max_inflight.max(1)));
        global()
            .gauge("net.gateway.max_inflight")
            .set(max_inflight.max(1) as i64);
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let workers = Arc::clone(&workers);
            thread::Builder::new()
                .name(format!("gateway-accept-{addr}"))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        global().counter("net.gateway.connections").inc();
                        let shutdown = Arc::clone(&shutdown);
                        let conn_workers = Arc::clone(&workers);
                        let dfs = Arc::clone(&dfs);
                        let admission = Arc::clone(&admission);
                        let scraper = scraper.clone();
                        workers.fetch_add(1, Ordering::SeqCst);
                        // Cloned before the spawn: a failed spawn
                        // drops its closure (and the stream with it),
                        // and the client deserves a typed refusal,
                        // not a silent hangup.
                        let reply = stream.try_clone();
                        let spawned =
                            thread::Builder::new()
                                .name("gateway-conn".into())
                                .spawn(move || {
                                    serve_conn(
                                        stream,
                                        &dfs,
                                        &admission,
                                        admission_timeout,
                                        scraper,
                                        &shutdown,
                                    );
                                    conn_workers.fetch_sub(1, Ordering::SeqCst);
                                });
                        if spawned.is_err() {
                            workers.fetch_sub(1, Ordering::SeqCst);
                            global().counter("net.gateway.spawn_failures").inc();
                            if let Ok(mut s) = reply {
                                let _ = respond(&mut s, &spawn_refusal());
                            }
                        }
                    }
                })?
        };
        Ok(GatewayHandle {
            addr,
            shutdown,
            workers,
            accept: Some(accept),
        })
    }
}

fn dfs_err(e: &DfsError) -> Response {
    Response::Err {
        kind: kind_of_dfs(e),
        message: e.to_string(),
    }
}

fn protocol_err(message: String) -> Response {
    Response::Err {
        kind: ErrorKind::Protocol,
        message,
    }
}

fn too_many_transfers() -> Response {
    Response::Err {
        kind: ErrorKind::Busy,
        message: "too many open transfers on this connection; finish one first".into(),
    }
}

/// Counts one frame's worth of a multi-frame transfer into
/// `net.gateway.stream.{chunks,bytes}_{in,out}`.
fn count_chunk(direction: &str, bytes: usize) {
    global()
        .counter(&format!("net.gateway.stream.chunks_{direction}"))
        .inc();
    global()
        .counter(&format!("net.gateway.stream.bytes_{direction}"))
        .add(bytes as u64);
}

const GET_US: &str = "net.gateway.get_us";
const PUT_US: &str = "net.gateway.put_us";

/// Where an answered frame's gateway-side service time goes.
#[derive(Debug, Clone, Copy)]
enum Charge {
    /// To open transfer `id`, which continues.
    Open(u64),
    /// Into the histogram named first, added to the service time of
    /// the transfer's earlier frames (second): the transfer finished,
    /// with success or a typed error.
    Finished(&'static str, u64),
    /// Nowhere: the frame named no open transfer, or the transfer was
    /// refused as `Busy` (clients count that as shed load, not as an
    /// answered transfer).
    Nothing,
}

/// An open multi-frame transfer.
#[derive(Debug)]
struct Session {
    name: String,
    /// Gateway-side service time of the transfer's frames so far.
    service_us: u64,
    cursor: Cursor,
}

/// Where an open transfer stands.
#[derive(Debug)]
enum Cursor {
    /// A put whose chunks stream into the DFS's staged put
    /// (`put_begin`/`put_append`), so the gateway never holds more of
    /// the object than the current chunk.
    Put {
        object_len: u64,
        received: u64,
        next_seq: u64,
    },
    /// A get: each `GetChunk` decodes the next window of coding groups.
    Get {
        num_groups: usize,
        per_window: usize,
        next_group: usize,
    },
}

/// Open transfers of one connection. Transfer ids are scoped to the
/// connection that allocated them; the `net.gateway.stream.inflight`
/// gauge counts open sessions across all connections.
#[derive(Debug)]
struct StreamSessions {
    next_id: u64,
    open: HashMap<u64, Session>,
}

impl StreamSessions {
    fn new() -> StreamSessions {
        StreamSessions {
            next_id: 1,
            open: HashMap::new(),
        }
    }

    fn has_room(&self) -> bool {
        self.open.len() < MAX_STREAM_SESSIONS
    }

    fn open(&mut self, name: String, cursor: Cursor) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let sess = Session {
            name,
            service_us: 0,
            cursor,
        };
        self.open.insert(id, sess);
        global().gauge("net.gateway.stream.inflight").add(1);
        id
    }

    /// Closes transfer `id` — counted as an abort when `failed` (a
    /// failed put's staged upload must already be gone) — and returns
    /// the service time its frames took.
    fn close(&mut self, id: u64, failed: bool) -> u64 {
        let Some(sess) = self.open.remove(&id) else {
            return 0;
        };
        global().gauge("net.gateway.stream.inflight").add(-1);
        if failed {
            global().counter("net.gateway.stream.aborts").inc();
        }
        sess.service_us
    }

    /// Destroys transfer `id`, reclaiming a put's staged blocks, and
    /// returns the service time its frames took.
    fn abort<C, S>(&mut self, dfs: &RwLock<Dfs<C, S>>, id: u64) -> u64
    where
        C: ErasureCode,
        S: BlockStore,
    {
        if let Some(Session {
            name,
            cursor: Cursor::Put { .. },
            ..
        }) = self.open.get(&id)
        {
            dfs.write()
                .unwrap_or_else(|e| e.into_inner())
                .put_abort(name);
        }
        self.close(id, true)
    }

    /// Connection teardown: every open transfer dies with the
    /// connection, and half-uploaded objects are reclaimed.
    fn abort_all<C, S>(&mut self, dfs: &RwLock<Dfs<C, S>>)
    where
        C: ErasureCode,
        S: BlockStore,
    {
        for id in self.open.keys().copied().collect::<Vec<_>>() {
            self.abort(dfs, id);
        }
    }

    /// Books `us` of service time as `charge` directs.
    fn charge(&mut self, charge: Charge, us: u64) {
        match charge {
            Charge::Open(id) => {
                if let Some(sess) = self.open.get_mut(&id) {
                    sess.service_us += us;
                }
            }
            Charge::Finished(histogram, prior_us) => {
                global().histogram(histogram).record(prior_us + us);
            }
            Charge::Nothing => {}
        }
    }
}

/// Dispatches one admitted request: every object transfer is a session
/// of this one state machine, and a transfer that fits one chunk
/// window opens none. Any typed error ends the transfer it names
/// (clients treat errors as transfer-over), so sessions never outlive a
/// failed exchange. Block-plane requests are refused with a typed
/// error: a gateway is not a daemon.
fn handle_request<C, S>(
    dfs: &RwLock<Dfs<C, S>>,
    sessions: &mut StreamSessions,
    req: Request,
) -> (Response, Charge)
where
    C: ErasureCode,
    S: BlockStore,
{
    match req {
        Request::PutObject {
            name,
            object_len,
            bytes,
        } => {
            let first = bytes.len() as u64;
            if first == object_len {
                let put = dfs
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .put(&name, &bytes);
                let resp = put.map_or_else(|e| dfs_err(&e), |_| Response::Ok);
                return (resp, Charge::Finished(PUT_US, 0));
            }
            if first > object_len {
                let message = format!("put of {object_len} bytes sent {first} in its first chunk");
                return (protocol_err(message), Charge::Finished(PUT_US, 0));
            }
            if !sessions.has_room() {
                return (too_many_transfers(), Charge::Nothing);
            }
            let opened = {
                let mut d = dfs.write().unwrap_or_else(|e| e.into_inner());
                d.put_begin(&name).and_then(|_| {
                    d.put_append(&name, &bytes).inspect_err(|_| {
                        d.put_abort(&name);
                        global().counter("net.gateway.stream.aborts").inc();
                    })
                })
            };
            if let Err(e) = opened {
                return (dfs_err(&e), Charge::Finished(PUT_US, 0));
            }
            count_chunk("in", bytes.len());
            let cursor = Cursor::Put {
                object_len,
                received: first,
                next_seq: 1,
            };
            let id = sessions.open(name, cursor);
            (Response::PutBegun { id }, Charge::Open(id))
        }
        Request::PutChunk { id, seq, bytes } => {
            let Some(Session {
                name,
                cursor:
                    Cursor::Put {
                        object_len,
                        received,
                        next_seq,
                    },
                ..
            }) = sessions.open.get_mut(&id)
            else {
                let message = format!("no open put {id} on this connection");
                return (protocol_err(message), Charge::Nothing);
            };
            let total = *received + bytes.len() as u64;
            let refusal = if seq != *next_seq {
                Some(format!(
                    "transfer {id}: chunk seq {seq}, expected {next_seq}"
                ))
            } else if total > *object_len {
                Some(format!(
                    "transfer {id} overran its declared length of {object_len} bytes"
                ))
            } else {
                None
            };
            if let Some(message) = refusal {
                let prior_us = sessions.abort(dfs, id);
                return (protocol_err(message), Charge::Finished(PUT_US, prior_us));
            }
            let last = total == *object_len;
            (*received, *next_seq) = (total, seq + 1);
            let stored = {
                let mut d = dfs.write().unwrap_or_else(|e| e.into_inner());
                let res = d.put_append(name, &bytes).and_then(|()| {
                    // The chunk that completes the object commits it.
                    if last {
                        d.put_commit(name).map(drop)
                    } else {
                        Ok(())
                    }
                });
                // A failed append leaves the upload open and a failed
                // commit has already destroyed it; either way, under
                // this same lock, nothing of it is left.
                if res.is_err() {
                    d.put_abort(name);
                }
                res
            };
            match stored {
                Err(e) => (
                    dfs_err(&e),
                    Charge::Finished(PUT_US, sessions.close(id, true)),
                ),
                Ok(()) => {
                    count_chunk("in", bytes.len());
                    if last {
                        (
                            Response::Ok,
                            Charge::Finished(PUT_US, sessions.close(id, false)),
                        )
                    } else {
                        (Response::Ok, Charge::Open(id))
                    }
                }
            }
        }
        Request::GetObject { name } => {
            let d = dfs.read().unwrap_or_else(|e| e.into_inner());
            let manifest = match d.object_manifest(&name) {
                Ok(m) => m,
                Err(e) => return (dfs_err(&e), Charge::Finished(GET_US, 0)),
            };
            // Windows are whole coding groups, so each decodes cleanly.
            let per_window = (CHUNK_BYTES / d.code().message_len()).max(1);
            if manifest.num_groups <= per_window {
                let resp = d.get(&name).map_or_else(|e| dfs_err(&e), Response::Blob);
                return (resp, Charge::Finished(GET_US, 0));
            }
            if !sessions.has_room() {
                return (too_many_transfers(), Charge::Nothing);
            }
            let bytes = match d.read_groups(&name, 0, per_window) {
                Ok(bytes) => bytes,
                Err(e) => return (dfs_err(&e), Charge::Finished(GET_US, 0)),
            };
            drop(d);
            count_chunk("out", bytes.len());
            let cursor = Cursor::Get {
                num_groups: manifest.num_groups,
                per_window,
                next_group: per_window,
            };
            let id = sessions.open(name, cursor);
            let object_len = manifest.object_len as u64;
            let resp = Response::GetBegun {
                id,
                object_len,
                bytes,
            };
            (resp, Charge::Open(id))
        }
        Request::GetChunk { id } => {
            let Some(Session {
                name,
                cursor:
                    Cursor::Get {
                        num_groups,
                        per_window,
                        next_group,
                    },
                ..
            }) = sessions.open.get_mut(&id)
            else {
                let message = format!("no open get {id} on this connection");
                return (protocol_err(message), Charge::Nothing);
            };
            let read = dfs.read().unwrap_or_else(|e| e.into_inner()).read_groups(
                name,
                *next_group,
                *per_window,
            );
            *next_group += *per_window;
            let eof = *next_group >= *num_groups;
            match read {
                Err(e) => (
                    dfs_err(&e),
                    Charge::Finished(GET_US, sessions.abort(dfs, id)),
                ),
                Ok(bytes) => {
                    count_chunk("out", bytes.len());
                    let charge = if eof {
                        Charge::Finished(GET_US, sessions.close(id, false))
                    } else {
                        Charge::Open(id)
                    };
                    (Response::Chunk { id, eof, bytes }, charge)
                }
            }
        }
        _ => (
            protocol_err("block-plane request sent to the gateway".into()),
            Charge::Nothing,
        ),
    }
}

/// Builds the gateway's stats document: vitals, the registry export
/// (including per-kind request histograms), buffered trace events when
/// tracing is on, and — when a [`Scraper`] is attached — the whole
/// cluster's merged view under `"scrape"`. `daemons_reachable` is
/// stamped at the top level of that section so shell checks can grep
/// it without walking the structure.
fn gateway_stats_doc(scraper: Option<&Scraper>) -> Json {
    let ring = global_trace();
    let mut doc = Json::object()
        .field("role", "gateway")
        .field("version", PROTO_VERSION)
        .field("uptime_ms", service_uptime_ms())
        .field("now_us", ring.now_us())
        .field("metrics", global().export().to_json());
    if ring.is_enabled() {
        let events: Vec<Json> = ring.events().iter().map(|e| e.to_json()).collect();
        doc = doc.field("trace", Json::Arr(events));
    }
    let scrape = match scraper {
        Some(s) => s.status_json(),
        None => Json::object().field("enabled", false),
    };
    doc.field("scrape", scrape)
}

/// Drives one client connection; same frame-reassembly/poll shape as
/// the daemon's loop, plus admission control per request.
///
/// `Stats` and `Ping` answer *before* admission: introspection must
/// work precisely when the admission queue is saturated, and neither
/// touches the `Dfs`. Admitted object requests run under a
/// `gateway.request` span (joined to the client's trace context when
/// the frame carried one) and are timed per transfer —
/// `net.gateway.get_us` / `net.gateway.put_us` record one sample per
/// transfer an admitted frame finishes (its service time summed over
/// its frames), and none for a transfer refused as `Busy`, which is
/// what makes the loadgen's responses-vs-histogram-count cross-check
/// exact at every object size.
fn serve_conn<C, S>(
    stream: TcpStream,
    dfs: &RwLock<Dfs<C, S>>,
    admission: &Admission,
    admission_timeout: Duration,
    scraper: Option<Arc<Scraper>>,
    shutdown: &AtomicBool,
) where
    C: ErasureCode,
    S: BlockStore,
{
    let mut sessions = StreamSessions::new();
    conn_loop(
        stream,
        dfs,
        admission,
        admission_timeout,
        scraper,
        shutdown,
        &mut sessions,
    );
    // However the connection ended — clean close, transport error,
    // shutdown — its open transfers die with it, and half-uploaded
    // objects have their staged blocks reclaimed.
    sessions.abort_all(dfs);
}

#[allow(clippy::too_many_arguments)]
fn conn_loop<C, S>(
    mut stream: TcpStream,
    dfs: &RwLock<Dfs<C, S>>,
    admission: &Admission,
    admission_timeout: Duration,
    scraper: Option<Arc<Scraper>>,
    shutdown: &AtomicBool,
    sessions: &mut StreamSessions,
) where
    C: ErasureCode,
    S: BlockStore,
{
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
                return;
            }
            let (req, ctx) = match Request::decode_with_ctx(&payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    global().counter("net.gateway.protocol_errors").inc();
                    let _ = respond(
                        &mut stream,
                        &Response::Err {
                            kind: ErrorKind::Protocol,
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            };
            global().counter("net.gateway.requests").inc();
            let resp = match req {
                Request::Stats => {
                    Response::Stats(gateway_stats_doc(scraper.as_deref()).render().into_bytes())
                }
                Request::Ping => Response::Ok,
                req => {
                    let wait = Instant::now();
                    if admission.acquire(admission_timeout) {
                        global()
                            .histogram("net.gateway.admission_wait_us")
                            .record(wait.elapsed().as_micros() as u64);
                        let _ctx = ctx.map(|c| {
                            op::install(op::OpContext {
                                op: c.op,
                                span: c.span,
                            })
                        });
                        let _span = op::span("gateway.request", "net");
                        let inflight = global().gauge("net.gateway.inflight");
                        inflight.add(1);
                        let started = Instant::now();
                        let (resp, charge) = handle_request(dfs, sessions, req);
                        sessions.charge(charge, started.elapsed().as_micros() as u64);
                        inflight.add(-1);
                        admission.release();
                        resp
                    } else {
                        global().counter("net.gateway.busy_rejections").inc();
                        // A refused chunk strands its transfer (the
                        // client treats any typed error as
                        // transfer-over), so destroy the session
                        // rather than leak it until conn close.
                        if let Request::PutChunk { id, .. } | Request::GetChunk { id } = &req {
                            sessions.abort(dfs, *id);
                        }
                        Response::Err {
                            kind: ErrorKind::Busy,
                            message: "admission queue full; retry with backoff".into(),
                        }
                    }
                }
            };
            if respond(&mut stream, &resp).is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if let Err(e) = frames.push(&chunk[..n]) {
                    global().counter("net.gateway.protocol_errors").inc();
                    let _ = respond(
                        &mut stream,
                        &Response::Err {
                            kind: ErrorKind::Protocol,
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

fn respond(stream: &mut TcpStream, resp: &Response) -> Result<(), ProtocolError> {
    crate::frame::write_frame(stream, &resp.encode())
}
