//! The gateway's object-transfer state machine over real TCP: a
//! transfer of N chunk windows takes N exchanges (one, with no session,
//! when the object fits one window), and a put becomes visible only
//! when its final chunk is answered.
//!
//! The assertions read process-global gateway metrics, so the tests
//! serialize on one lock.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use galloper_codes::{build_code, CodeSpec};
use galloper_dfs::{BlockStore, Dfs, MemStore};
use galloper_net::{
    Conn, Daemon, DaemonHandle, ErrorKind, Gateway, GatewayHandle, ProtocolError, RemoteStore,
    Request, Response, CHUNK_BYTES,
};
use galloper_obs::global;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Three daemons and a gateway under rs(2,1) with 1 MiB stripes: a
/// coding group carries 2 MiB, so one get window is exactly
/// `CHUNK_BYTES`. Holds the test lock for the cluster's lifetime.
struct Cluster {
    daemons: Vec<DaemonHandle>,
    gateway: GatewayHandle,
    _serial: MutexGuard<'static, ()>,
}

impl Cluster {
    fn spawn() -> Cluster {
        static LOCK: Mutex<()> = Mutex::new(());
        let serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let listener = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let daemons: Vec<DaemonHandle> = (0..3)
            .map(|_| Daemon::spawn(listener(), MemStore::new()).expect("daemon"))
            .collect();
        let stores = daemons
            .iter()
            .map(|d| RemoteStore::new(d.addr().to_string()).with_timeout(TIMEOUT))
            .collect();
        let code = build_code(&CodeSpec::rs(2, 1, 1 << 20)).expect("code");
        let gateway = Gateway::spawn(listener(), Dfs::with_stores(stores, code), 64).expect("gw");
        Cluster {
            daemons,
            gateway,
            _serial: serial,
        }
    }

    fn conn(&self) -> Conn {
        let mut conn = Conn::connect(&self.gateway.addr().to_string(), TIMEOUT).expect("connect");
        conn.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
        conn
    }

    /// Blocks held across every daemon.
    fn blocks(&self) -> usize {
        let count = |d: &DaemonHandle| RemoteStore::new(d.addr().to_string()).block_count();
        self.daemons.iter().map(count).sum()
    }
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    let byte = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
    (0..len).map(|i| byte(i) ^ seed).collect()
}

/// Requests the gateway admitted, then samples in its put and get
/// histograms.
fn tallies() -> [u64; 3] {
    let samples = |name| global().histogram(name).count();
    [
        global().counter("net.gateway.requests").get(),
        samples("net.gateway.put_us"),
        samples("net.gateway.get_us"),
    ]
}

fn expect_kind(resp: Result<Response, ProtocolError>, want: ErrorKind) {
    match resp.expect("transport") {
        Response::Err { kind, .. } => assert_eq!(kind, want),
        other => panic!("expected {want} error, got {other:?}"),
    }
}

/// Opens a put of `object_len` bytes carrying `first`, returning its id.
fn open_put(conn: &mut Conn, name: &str, object_len: usize, first: &[u8]) -> u64 {
    let resp = conn.call(&Request::PutObject {
        name: name.into(),
        object_len: object_len as u64,
        bytes: first.to_vec(),
    });
    match resp.expect("open put") {
        Response::PutBegun { id } => id,
        other => panic!("expected PutBegun, got {other:?}"),
    }
}

#[test]
fn n_window_put_and_get_take_n_exchanges_and_one_sample_each() {
    let cluster = Cluster::spawn();
    let mut conn = cluster.conn();
    // One window exactly (a one-window put and get are each one
    // admitted request), then three windows with a ragged tail.
    for (windows, len) in [(1, CHUNK_BYTES), (3, 3 * CHUNK_BYTES - 5)] {
        let name = format!("obj{windows}");
        let bytes = payload(len, windows as u8);
        let [reqs, puts, gets] = tallies();
        assert_eq!(conn.put_object(&name, &bytes).expect("put"), Response::Ok);
        assert_eq!(tallies(), [reqs + windows, puts + 1, gets], "put {len}");
        let [reqs, puts, gets] = tallies();
        assert_eq!(conn.get_object(&name).expect("get"), Response::Blob(bytes));
        assert_eq!(tallies(), [reqs + windows, puts, gets + 1], "get {len}");
    }
}

#[test]
fn one_window_get_succeeds_with_four_sessions_open() {
    let cluster = Cluster::spawn();
    let mut conn = cluster.conn();
    let small = payload(1000, 2);
    assert_eq!(conn.put_object("small", &small).expect("put"), Response::Ok);
    let big = payload(2 * CHUNK_BYTES + 1, 3);
    assert_eq!(conn.put_object("big", &big).expect("put"), Response::Ok);
    for i in 0..4 {
        open_put(&mut conn, &format!("open/{i}"), CHUNK_BYTES + 1, &[9; 1024]);
    }

    // One-window transfers open no session, so the per-connection
    // bound never refuses them...
    let get = conn.call(&Request::GetObject {
        name: "small".into(),
    });
    assert_eq!(get.expect("get"), Response::Blob(small));
    assert_eq!(
        conn.put_object("tiny", &[5; 10]).expect("put"),
        Response::Ok
    );
    // ...while a multi-window get or put would open a fifth session.
    expect_kind(conn.get_object("big"), ErrorKind::Busy);
    expect_kind(conn.put_object("more", &big), ErrorKind::Busy);
}

#[test]
fn object_is_invisible_until_its_final_chunk_is_answered() {
    let cluster = Cluster::spawn();
    let (mut writer, mut reader) = (cluster.conn(), cluster.conn());
    let bytes = payload(2 * CHUNK_BYTES + 10, 5);
    let chunks: Vec<&[u8]> = bytes.chunks(CHUNK_BYTES).collect();
    let id = open_put(&mut writer, "late", bytes.len(), chunks[0]);
    for (seq, chunk) in chunks.iter().enumerate().skip(1) {
        expect_kind(reader.get_object("late"), ErrorKind::NotFound);
        let resp = writer.call(&Request::PutChunk {
            id,
            seq: seq as u64,
            bytes: chunk.to_vec(),
        });
        assert_eq!(resp.expect("chunk"), Response::Ok, "chunk {seq}");
    }
    assert_eq!(
        reader.get_object("late").expect("get"),
        Response::Blob(bytes)
    );
}

#[test]
fn connection_dropped_one_chunk_short_leaves_no_blocks() {
    let cluster = Cluster::spawn();
    let mut conn = cluster.conn();
    let bytes = payload(3 * CHUNK_BYTES, 6);
    let id = open_put(&mut conn, "short", bytes.len(), &bytes[..CHUNK_BYTES]);
    let resp = conn.call(&Request::PutChunk {
        id,
        seq: 1,
        bytes: bytes[CHUNK_BYTES..2 * CHUNK_BYTES].to_vec(),
    });
    assert_eq!(resp.expect("chunk"), Response::Ok);
    assert!(cluster.blocks() > 0, "whole groups are placed as they fill");

    drop(conn);
    let deadline = Instant::now() + TIMEOUT;
    while cluster.blocks() > 0 {
        assert!(Instant::now() < deadline, "staged blocks never reclaimed");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The abandoned upload is invisible and no longer claims the name.
    let mut conn = cluster.conn();
    expect_kind(conn.get_object("short"), ErrorKind::NotFound);
    assert_eq!(conn.put_object("short", &bytes).expect("put"), Response::Ok);
}
