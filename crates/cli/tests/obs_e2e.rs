//! End-to-end observability-plane test against real processes.
//!
//! Spawns `galloper serve --daemons 3` (which itself spawns three
//! `galloper daemon` children) with tracing and a fast scrape interval
//! enabled, drives object traffic through a real TCP connection, and
//! asserts the acceptance criteria of the observability plane:
//!
//! * `galloper stat --json` reports all three daemons reachable and a
//!   merged registry whose gateway GET histogram counts the test's
//!   reads;
//! * the stats document contains a cross-process trace: a daemon-side
//!   `daemon.request` span whose ancestry (walked over events from
//!   both the gateway process and the daemon processes) reaches the
//!   gateway's `gateway.request` span for the same operation id;
//! * after `kill -9` of one daemon the scraper reports 2/3 reachable
//!   (the dead node does not poison the merge) and a degraded read
//!   still returns the object byte-exact.
//!
//! This test runs real subprocesses and sleeps on scrape intervals, so
//! it lives in the CLI crate's integration tier (workspace test runs),
//! not in any hot inner loop.

use std::collections::HashMap;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use galloper_net::{Conn, Request, Response};
use galloper_obs::{json, Json};

const GALLOPER: &str = env!("CARGO_BIN_EXE_galloper");
const CONN_TIMEOUT: Duration = Duration::from_secs(5);
/// Generous outer bound for "the scraper noticed" polls; each poll
/// sleeps 100ms and the scrape interval below is 200ms.
const POLL_DEADLINE: Duration = Duration::from_secs(30);

/// A running `serve` cluster plus everything needed to tear it down.
struct Cluster {
    serve: Child,
    gateway: String,
    daemon_pids: Vec<u32>,
}

impl Cluster {
    /// Spawns `galloper serve --daemons 3` with tracing and a 200ms
    /// scrape interval, and parses the stdout handshake.
    fn spawn(root: &std::path::Path) -> Cluster {
        let mut serve = Command::new(GALLOPER)
            .arg("serve")
            .arg("--daemons")
            .arg("3")
            .arg("--root")
            .arg(root)
            .env("GALLOPER_TRACE", "1")
            .env("GALLOPER_SCRAPE_MS", "200")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn galloper serve");
        let stdout = serve.stdout.take().expect("serve stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut daemon_pids = Vec::new();
        let gateway = loop {
            let line = lines
                .next()
                .expect("serve exited before announcing its gateway")
                .expect("serve stdout read");
            if let Some(rest) = line.strip_prefix("GALLOPER_DAEMON_PID ") {
                let pid = rest
                    .split_whitespace()
                    .nth(1)
                    .and_then(|p| p.parse::<u32>().ok())
                    .expect("malformed GALLOPER_DAEMON_PID line");
                daemon_pids.push(pid);
            } else if let Some(addr) = line.strip_prefix("GALLOPER_GATEWAY_LISTENING ") {
                break addr.trim().to_string();
            }
        };
        assert_eq!(daemon_pids.len(), 3, "expected three daemon PIDs");
        // Keep draining serve's stdout so the pipe never fills.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Cluster {
            serve,
            gateway,
            daemon_pids,
        }
    }

    /// Runs `galloper stat <gateway> --json` and parses the document.
    fn stat_json(&self) -> Json {
        let out = Command::new(GALLOPER)
            .arg("stat")
            .arg(&self.gateway)
            .arg("--json")
            .output()
            .expect("run galloper stat");
        assert!(
            out.status.success(),
            "stat --json failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("stat emitted valid JSON")
    }

    /// Polls `stat --json` until `pred` accepts the document.
    fn poll_stat(&self, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
        let deadline = Instant::now() + POLL_DEADLINE;
        loop {
            let doc = self.stat_json();
            if pred(&doc) {
                return doc;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.serve.kill();
        let _ = self.serve.wait();
        for pid in &self.daemon_pids {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
    }
}

fn put(gateway: &str, name: &str, bytes: Vec<u8>) {
    let mut conn = Conn::connect(gateway, CONN_TIMEOUT).expect("connect for put");
    match conn
        .call(&Request::PutObject {
            name: name.to_string(),
            object_len: bytes.len() as u64,
            bytes,
        })
        .expect("put transport")
    {
        Response::Ok => {}
        other => panic!("put refused: {other:?}"),
    }
}

fn get(gateway: &str, name: &str) -> Vec<u8> {
    let mut conn = Conn::connect(gateway, CONN_TIMEOUT).expect("connect for get");
    match conn
        .call(&Request::GetObject {
            name: name.to_string(),
        })
        .expect("get transport")
    {
        Response::Blob(bytes) => bytes,
        other => panic!("get refused: {other:?}"),
    }
}

/// `scrape.<field>` from a gateway stats document, as u64.
fn scrape_u64(doc: &Json, field: &str) -> Option<u64> {
    doc.get("scrape")?.get(field)?.as_u64()
}

/// A trace event reduced to what the connectivity walk needs:
/// `(name, op, span, parent)`.
type Ev = (String, u64, u64, u64);

/// Collects `(name, op, span, parent)` from a JSON trace-event array.
fn events_of(arr: Option<&Json>) -> Vec<Ev> {
    let Some(Json::Arr(events)) = arr else {
        return Vec::new();
    };
    events
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("op")?.as_u64()?,
                e.get("span")?.as_u64()?,
                e.get("parent")?.as_u64()?,
            ))
        })
        .collect()
}

/// All trace events in a stats document: the gateway's own ring plus
/// every scraped node's ring (from the latest cluster view).
fn all_events(doc: &Json) -> (Vec<Ev>, Vec<Ev>) {
    let gateway = events_of(doc.get("trace"));
    let mut daemons = Vec::new();
    if let Some(Json::Arr(nodes)) = doc
        .get("scrape")
        .and_then(|s| s.get("latest"))
        .and_then(|l| l.get("nodes"))
    {
        for node in nodes {
            daemons.extend(events_of(node.get("stats").and_then(|s| s.get("trace"))));
        }
    }
    (gateway, daemons)
}

/// Whether the document contains one cross-process connected trace: a
/// daemon-side `daemon.request` span whose ancestor chain (through
/// gateway-process spans) reaches a `gateway.request` span of the same
/// operation.
fn has_connected_trace(doc: &Json) -> bool {
    let (gateway_events, daemon_events) = all_events(doc);
    let gateway_roots: HashMap<u64, u64> = gateway_events
        .iter()
        .filter(|(name, op, ..)| name == "gateway.request" && *op != 0)
        .map(|(_, op, span, _)| (*op, *span))
        .collect();
    for (name, op, _, parent) in &daemon_events {
        if name != "daemon.request" {
            continue;
        }
        let Some(root) = gateway_roots.get(op) else {
            continue;
        };
        // Walk the daemon span's ancestry through both processes'
        // events for this op (the gateway's DFS spans sit between the
        // daemon span and gateway.request).
        let parent_of: HashMap<u64, u64> = gateway_events
            .iter()
            .chain(daemon_events.iter())
            .filter(|(_, o, ..)| o == op)
            .map(|(_, _, span, parent)| (*span, *parent))
            .collect();
        let mut cursor = *parent;
        for _ in 0..64 {
            if cursor == *root {
                return true;
            }
            match parent_of.get(&cursor) {
                Some(next) => cursor = *next,
                None => break,
            }
        }
    }
    false
}

#[test]
fn cluster_stat_traces_and_survives_a_daemon_kill() {
    let root = std::env::temp_dir().join(format!("galloper-obs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create test root");
    let cluster = Cluster::spawn(&root.join("data"));

    // Drive traffic: one object, several reads.
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i * 31 % 251) as u8).collect();
    put(&cluster.gateway, "e2e-obj", payload.clone());
    for _ in 0..4 {
        assert_eq!(get(&cluster.gateway, "e2e-obj"), payload);
    }

    // Healthy side: the scraper must see all three daemons, and the
    // gateway's own GET histogram must have counted our reads.
    let doc = cluster.poll_stat("3/3 reachable with a scrape tick", |d| {
        scrape_u64(d, "daemons_reachable") == Some(3) && scrape_u64(d, "ticks").unwrap_or(0) >= 1
    });
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("gateway"));
    assert_eq!(scrape_u64(&doc, "daemons_total"), Some(3));
    assert_eq!(scrape_u64(&doc, "errors"), Some(0));
    let gets = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("net.gateway.get_us"))
        .and_then(|g| g.get("count"))
        .and_then(Json::as_u64)
        .expect("gateway GET histogram present");
    assert!(gets >= 4, "expected >=4 recorded GETs, saw {gets}");

    // Cross-process trace: keep polling until a scrape tick has
    // shipped daemon events for one of our operations, then require
    // the daemon span's ancestry to reach the gateway span.
    cluster.poll_stat("a connected cross-process trace", has_connected_trace);

    // The human-facing forms must at least run against a live cluster.
    let table = Command::new(GALLOPER)
        .arg("stat")
        .arg(&cluster.gateway)
        .output()
        .expect("run galloper stat (table)");
    assert!(table.status.success());
    let rendered = String::from_utf8_lossy(&table.stdout).to_string();
    assert!(
        rendered.contains("3/3 daemons reachable"),
        "table missing cluster line:\n{rendered}"
    );
    let top = Command::new(GALLOPER)
        .arg("top")
        .arg(&cluster.gateway)
        .arg("--iterations")
        .arg("1")
        .arg("--interval-ms")
        .arg("50")
        .output()
        .expect("run galloper top");
    assert!(top.status.success());

    // Machine loss: kill one daemon outright. The scraper must report
    // it unreachable without poisoning the merge, and a degraded read
    // must still be byte-exact.
    let victim = cluster.daemon_pids[0];
    assert!(Command::new("kill")
        .arg("-9")
        .arg(victim.to_string())
        .status()
        .expect("kill daemon")
        .success());
    let doc = cluster.poll_stat("2/3 reachable after kill", |d| {
        scrape_u64(d, "daemons_reachable") == Some(2)
    });
    assert_eq!(scrape_u64(&doc, "daemons_total"), Some(3));
    let unreachable = doc
        .get("scrape")
        .and_then(|s| s.get("latest"))
        .and_then(|l| l.get("nodes"))
        .and_then(|n| match n {
            Json::Arr(nodes) => Some(nodes.clone()),
            _ => None,
        })
        .expect("latest view has nodes")
        .into_iter()
        .filter(|n| n.get("reachable") == Some(&Json::Bool(false)))
        .count();
    assert_eq!(unreachable, 1, "exactly the killed daemon is down");
    assert_eq!(get(&cluster.gateway, "e2e-obj"), payload);

    drop(cluster);
    let _ = std::fs::remove_dir_all(&root);
}
