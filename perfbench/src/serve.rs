//! The served store, hosted in-process: seven `Daemon`s over fresh
//! `DiskStore` roots and one `Gateway` over
//! `Dfs::with_stores(Vec<RemoteStore>, build_code(spec))` — the
//! composition `galloper serve` builds — plus the closed-loop clients
//! that drive it.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use galloper_codes::{build_code, CodeSpec};
use galloper_dfs::{BlockStore, Dfs, DiskStore};
use galloper_net::{Conn, Daemon, DaemonHandle, Gateway, GatewayHandle, RemoteStore, Response};
use galloper_obs::{HistogramSnapshot, RegistrySnapshot};

use crate::stats::Rng;
use crate::timed::{LayerTally, Timed};

/// Storage daemons in the cluster: one per block of a Galloper(4,2,1)
/// group.
pub const DAEMONS: usize = 7;

/// Size of a preloaded object, the unit of every get.
pub const SMALL: usize = 64 << 10;

/// Client and gateway-to-daemon timeout, as `galloper serve` uses.
const TIMEOUT: Duration = Duration::from_secs(10);

/// The pinned serve code: the paper's running example, Galloper(4,2,1)
/// with 4 KiB stripes — 28 KiB blocks, 112 KiB messages.
pub fn serve_spec() -> CodeSpec {
    CodeSpec::galloper(4, 2, 1, 4096)
}

/// The shared tallies of a traced cluster: every gateway-side
/// `RemoteStore`, every daemon-side `DiskStore`, and the gateway's code.
#[derive(Debug, Clone)]
pub struct Tracing {
    /// Gateway-side store calls (one round trip each).
    pub remote: Arc<LayerTally>,
    /// Daemon-side store calls (the disk work behind a round trip).
    pub disk: Arc<LayerTally>,
    /// The gateway's encode and decode calls.
    pub codec: Arc<LayerTally>,
}

impl Tracing {
    /// Fresh, empty tallies.
    pub fn new() -> Tracing {
        Tracing {
            remote: LayerTally::shared(),
            disk: LayerTally::shared(),
            codec: LayerTally::shared(),
        }
    }
}

/// A running cluster on its own state directory, torn down (threads
/// stopped, directory removed) on drop.
#[derive(Debug)]
pub struct Cluster {
    gateway: GatewayHandle,
    daemons: Vec<DaemonHandle>,
    root: PathBuf,
}

impl Cluster {
    /// Starts seven daemons on empty directories under `root` and a
    /// gateway over them. With `tracing`, every store and the code are
    /// wrapped in [`Timed`].
    ///
    /// # Errors
    ///
    /// A message when a directory, socket or thread cannot be created.
    pub fn start(root: PathBuf, tracing: Option<&Tracing>) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(&root);
        let mut daemons = Vec::with_capacity(DAEMONS);
        for i in 0..DAEMONS {
            let store = DiskStore::open(root.join(format!("d{i}")))
                .map_err(|e| format!("daemon {i} store: {e}"))?;
            let handle = match tracing {
                None => Daemon::spawn(bind()?, store),
                Some(t) => Daemon::spawn(bind()?, Timed::new(store, Arc::clone(&t.disk))),
            }
            .map_err(|e| format!("daemon {i}: {e}"))?;
            daemons.push(handle);
        }
        let remotes: Vec<RemoteStore> = daemons
            .iter()
            .map(|d| RemoteStore::new(d.addr().to_string()).with_timeout(TIMEOUT))
            .collect();
        let code = build_code(&serve_spec()).map_err(|e| format!("serve code: {e}"))?;
        let inflight = galloper_net::DEFAULT_MAX_INFLIGHT;
        let gateway = match tracing {
            None => Gateway::spawn(bind()?, Dfs::with_stores(remotes, code), inflight),
            Some(t) => {
                let remotes = remotes
                    .into_iter()
                    .map(|r| Timed::new(r, Arc::clone(&t.remote)))
                    .collect();
                let code = Timed::new(code, Arc::clone(&t.codec));
                Gateway::spawn(bind()?, Dfs::with_stores(remotes, code), inflight)
            }
        }
        .map_err(|e| format!("gateway: {e}"))?;
        Ok(Cluster {
            gateway,
            daemons,
            root,
        })
    }

    /// The gateway's address.
    pub fn addr(&self) -> String {
        self.gateway.addr().to_string()
    }

    /// Stops daemon `i` for good; its blocks become erasures.
    pub fn kill_daemon(&mut self, i: usize) {
        self.daemons[i].kill();
    }

    /// Payload bytes in all daemons' stores, read from their
    /// directories (so a killed daemon's blocks still count).
    ///
    /// # Errors
    ///
    /// A message when a store directory cannot be read.
    pub fn stored_bytes(&self) -> Result<u64, String> {
        let mut total = 0;
        for i in 0..self.daemons.len() {
            let store = DiskStore::open(self.root.join(format!("d{i}")))
                .map_err(|e| format!("daemon {i} store: {e}"))?;
            total += store
                .probe()
                .map_err(|e| format!("daemon {i} store: {e}"))?
                .bytes;
        }
        Ok(total)
    }

    /// The gateway's metric registry, read through `Request::Stats`.
    ///
    /// # Errors
    ///
    /// A message when the stats call or its document fails.
    pub fn gateway_stats(&self) -> Result<GatewayStats, String> {
        let doc = galloper_cli::stat::fetch_stats(&self.addr())?;
        let metrics = doc.get("metrics").ok_or("stats document has no metrics")?;
        let snap = RegistrySnapshot::from_json(metrics)?;
        let hist = |name: &str| {
            snap.histogram(name)
                .cloned()
                .unwrap_or_else(HistogramSnapshot::empty)
        };
        Ok(GatewayStats {
            get: Sum::of(&hist("net.gateway.get_us")),
            put: Sum::of(&hist("net.gateway.put_us")),
            admission: Sum::of(&hist("net.gateway.admission_wait_us")),
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.gateway.kill();
        for d in &mut self.daemons {
            d.kill();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn bind() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}

/// Count and sum (µs) of one gateway histogram.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sum {
    /// Recorded samples.
    pub count: u64,
    /// Sum of the samples in microseconds.
    pub us: u64,
}

impl Sum {
    fn of(h: &HistogramSnapshot) -> Sum {
        Sum {
            count: h.count(),
            us: h.sum(),
        }
    }

    /// Mean in milliseconds of the samples between `before` and `self`.
    pub fn mean_ms_since(&self, before: &Sum) -> f64 {
        let n = self.count - before.count;
        if n == 0 {
            return 0.0;
        }
        (self.us - before.us) as f64 / n as f64 / 1e3
    }
}

/// The gateway's request histograms at one instant.
#[derive(Debug, Default, Clone, Copy)]
pub struct GatewayStats {
    /// `net.gateway.get_us`.
    pub get: Sum,
    /// `net.gateway.put_us`.
    pub put: Sum,
    /// `net.gateway.admission_wait_us`.
    pub admission: Sum,
}

/// The preloaded objects every get reads, generated from the seed.
#[derive(Debug)]
pub struct Objects {
    payloads: Vec<Vec<u8>>,
}

impl Objects {
    /// `count` objects of `len` bytes from `seed`.
    pub fn generate(seed: u64, count: usize, len: usize) -> Objects {
        Objects {
            payloads: (0..count)
                .map(|i| Rng::new(seed, i as u64).bytes(len))
                .collect(),
        }
    }

    fn name(i: usize) -> String {
        format!("obj-{i:05}")
    }

    /// Total user bytes.
    pub fn bytes(&self) -> u64 {
        self.payloads.iter().map(|p| p.len() as u64).sum()
    }

    /// Puts every object through the gateway at `addr`, one after
    /// another, and logs each put.
    ///
    /// # Errors
    ///
    /// A message on the first put that does not succeed.
    pub fn preload(&self, addr: &str) -> Result<OpLog, String> {
        let mut conn = connect(addr)?;
        let mut log = OpLog::default();
        for (i, p) in self.payloads.iter().enumerate() {
            log.attempted += 1;
            let t0 = Instant::now();
            match conn.put_object(&Objects::name(i), p) {
                Ok(Response::Ok) => log.record(t0, p.len()),
                other => return Err(format!("preload put {i}: {other:?}")),
            }
        }
        Ok(log)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Reads every object back once and counts those whose bytes do
    /// not come back.
    pub fn verify(&self, addr: &str) -> u64 {
        let Ok(mut conn) = connect(addr) else {
            return self.payloads.len() as u64;
        };
        let mut failed = 0;
        for (i, p) in self.payloads.iter().enumerate() {
            match conn.get_object(&Objects::name(i)) {
                Ok(Response::Blob(b)) if b == *p => {}
                _ => failed += 1,
            }
        }
        failed
    }
}

fn connect(addr: &str) -> Result<Conn, String> {
    Conn::connect(addr, TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

/// What one client connection saw: a latency per completed operation,
/// plus attempted and failed counts. A typed error, a transport error
/// or a byte mismatch is a failure.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Latency of each successful operation, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// User bytes moved by successful operations.
    pub bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl OpLog {
    /// Folds another connection's log into this one.
    pub fn merge(&mut self, other: OpLog) {
        self.lat_ms.extend(other.lat_ms);
        self.bytes += other.bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record(&mut self, t0: Instant, bytes: usize) {
        self.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.bytes += bytes as u64;
    }
}

/// A closed loop of gets of uniformly chosen preloaded objects, each
/// checked byte for byte, until `until` (at least one).
fn get_loop(addr: &str, objects: &Objects, mut rng: Rng, until: Instant) -> OpLog {
    let mut log = OpLog::default();
    let mut conn = connect(addr).ok();
    loop {
        if log.attempted > 0 && Instant::now() >= until {
            break;
        }
        let i = rng.below(objects.payloads.len());
        log.attempted += 1;
        let Some(c) = conn.as_mut() else {
            log.failed += 1;
            conn = connect(addr).ok();
            continue;
        };
        let t0 = Instant::now();
        match c.get_object(&Objects::name(i)) {
            Ok(Response::Blob(bytes)) if bytes == objects.payloads[i] => {
                log.record(t0, bytes.len());
            }
            Ok(_) => log.failed += 1,
            Err(_) => {
                log.failed += 1;
                conn = connect(addr).ok();
            }
        }
    }
    log
}

/// Two connections getting preloaded objects for `dur`.
pub fn get_phase(addr: &str, objects: &Objects, seed: u64, dur: Duration) -> OpLog {
    let until = Instant::now() + dur;
    std::thread::scope(|s| {
        let a = s.spawn(|| get_loop(addr, objects, Rng::new(seed, 1 << 40), until));
        let b = s.spawn(|| get_loop(addr, objects, Rng::new(seed, (1 << 40) + 1), until));
        let mut log = a.join().expect("get client panicked");
        log.merge(b.join().expect("get client panicked"));
        log
    })
}
