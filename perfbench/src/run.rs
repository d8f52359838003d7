//! The workloads: what each run sets up, drives and reports.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::codec::{self, CodecLog, Round};
use crate::serve::{self, Cluster, GatewayStats, Objects, OpLog, Tracing};
use crate::stats::{mean, median, percentile, Mark, Usage};
use crate::timed::LayerStats;

/// Measured rounds per run. Each round sets up afresh — one `setup_s`
/// sample — and then drives the workload's traffic, so that set-ups
/// and traffic both sample the host's load over the whole run, and
/// every round starts from the same state.
const ROUNDS: usize = 8;

/// How much data a run holds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Objects preloaded for the gets (64 KiB each).
    pub preload: usize,
    /// Bytes of the file the `file-codec` workload encodes.
    pub file_len: usize,
}

impl Sizes {
    /// The pinned benchmark sizes.
    pub const FULL: Sizes = Sizes {
        preload: 64,
        file_len: 256 << 20,
    };
}

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gets of preloaded 64 KiB objects on a healthy cluster.
    GetHealthy,
    /// [`Workload::GetHealthy`]'s traffic with one daemon killed.
    GetDegraded,
    /// Encode, degraded decode and repair of a file via the CLI layer.
    FileCodec,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::GetHealthy,
        Workload::GetDegraded,
        Workload::FileCodec,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GetHealthy => "get-healthy",
            Workload::GetDegraded => "get-degraded",
            Workload::FileCodec => "file-codec",
        }
    }

    /// The workload called `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's parameters.
#[derive(Debug)]
pub struct Args {
    /// What to drive.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Per-layer breakdown instead of end-to-end metrics.
    pub trace: bool,
    /// Data sizes.
    pub sizes: Sizes,
}

impl Args {
    /// The daemon the degraded workload kills.
    fn victim(&self) -> usize {
        (self.seed % serve::DAEMONS as u64) as usize
    }
}

/// What a run prints: operation counts, correctness, and named metrics.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (typed error or wrong bytes).
    pub failed: u64,
    /// False on a failed check that is not an operation (a traced-run
    /// reconciliation).
    consistent: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            consistent: true,
            metrics: Vec::new(),
        }
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn log(&mut self, log: &OpLog) {
        self.count(log.attempted, log.failed);
    }

    fn pass(&mut self, p: &Pass) {
        self.log(&p.gets);
        self.count(p.codec.attempted, p.codec.failed);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Fails the reconciliation when a child layer's time exceeds its
    /// parent's.
    fn within(&mut self, child: &str, child_ms: f64, parent: &str, parent_ms: f64) {
        if child_ms > parent_ms {
            eprintln!(
                "perfbench: reconciliation failed: {child} {child_ms:.4} ms > {parent} {parent_ms:.4} ms"
            );
            self.consistent = false;
        }
    }

    /// Whether every operation and check passed and every metric is a
    /// number.
    pub fn correct(&self) -> bool {
        self.consistent
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Restarts `VmHWM` from the live heap, so that [`peak_rss_mb`] reads
/// the peak of what follows. Freed heap is handed back first: the
/// allocator otherwise keeps what the set-ups freed, in amounts that
/// varied by 15 % from run to run. Where the kernel does not support
/// the restart, the peak stays the whole run's.
fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            /// glibc: returns free heap memory to the system.
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: malloc_trim takes no pointers and is safe to call
        // at any time from any thread; it only releases free pages.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The `q`-th percentile latency of `log`; 0 when it is empty (the
/// workload has no such operation).
fn pct(log: &OpLog, q: f64) -> f64 {
    percentile(&log.lat_ms, q).unwrap_or(0.0)
}

/// Gateway histograms and layer tallies at one instant of a traced run.
#[derive(Debug, Clone, Copy)]
struct Snap {
    gw: GatewayStats,
    remote: LayerStats,
    disk: LayerStats,
    codec: LayerStats,
}

impl Snap {
    fn take(c: &Cluster, t: &Tracing) -> Result<Snap, String> {
        Ok(Snap {
            gw: c.gateway_stats()?,
            remote: t.remote.snapshot(),
            disk: t.disk.snapshot(),
            codec: t.codec.snapshot(),
        })
    }
}

/// The layer work done during one phase of a traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    /// Gets and puts the gateway answered.
    n_get: f64,
    n_put: f64,
    /// Gateway means, ms.
    gw_get_ms: f64,
    gw_put_ms: f64,
    admission_ms: f64,
    remote: LayerStats,
    disk: LayerStats,
    codec: LayerStats,
}

/// Runs `phase`, and with tracing on, returns the layer work it did.
fn measured<T>(
    c: &Cluster,
    t: Option<&Tracing>,
    phase: impl FnOnce() -> T,
) -> Result<(T, Option<Window>), String> {
    let Some(t) = t else {
        return Ok((phase(), None));
    };
    let s0 = Snap::take(c, t)?;
    let out = phase();
    let s1 = Snap::take(c, t)?;
    Ok((
        out,
        Some(Window {
            n_get: (s1.gw.get.count - s0.gw.get.count) as f64,
            n_put: (s1.gw.put.count - s0.gw.put.count) as f64,
            gw_get_ms: s1.gw.get.mean_ms_since(&s0.gw.get),
            gw_put_ms: s1.gw.put.mean_ms_since(&s0.gw.put),
            admission_ms: s1.gw.admission.mean_ms_since(&s0.gw.admission),
            remote: s1.remote - s0.remote,
            disk: s1.disk - s0.disk,
            codec: s1.codec - s0.codec,
        }),
    ))
}

/// What one pass over a workload's traffic produced. Each workload
/// fills only the logs of the operations it does.
#[derive(Default)]
struct Pass {
    gets: OpLog,
    codec: CodecLog,
    /// Wall time of the traffic, seconds.
    secs: f64,
    /// What the traffic used: CPU time and bytes read. For
    /// `file-codec`, that of its CLI calls alone, without the checks
    /// between them.
    used: Usage,
    /// With tracing on, the layer work of the serve traffic.
    window: Option<Window>,
}

/// The serve workloads' traffic on a preloaded cluster: two getting
/// connections for `seconds`, after a kill for `get-degraded`.
fn serve_pass(
    a: &Args,
    cluster: &mut Cluster,
    objects: &Objects,
    seconds: f64,
    t: Option<&Tracing>,
) -> Result<Pass, String> {
    let addr = cluster.addr();
    let dur = Duration::from_secs_f64(seconds);
    if a.workload == Workload::GetDegraded {
        cluster.kill_daemon(a.victim());
    }
    let ((gets, secs, used), window) = measured(cluster, t, || {
        let (mark, t0) = (Mark::now(), Instant::now());
        let gets = serve::get_phase(&addr, objects, a.seed, dur);
        (gets, t0.elapsed().as_secs_f64(), mark.since())
    })?;
    Ok(Pass {
        gets,
        secs,
        used,
        window,
        ..Pass::default()
    })
}

/// The `file-codec` workload's traffic: rounds on `input` for
/// `seconds`.
fn codec_pass(input: &Path, state: &Path, seconds: f64) -> Pass {
    let t0 = Instant::now();
    let codec = codec::codec_phase(input, state, Duration::from_secs_f64(seconds));
    let mut used = Usage::default();
    for x in &codec.rounds {
        used += x.used;
    }
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        used,
        codec,
        ..Pass::default()
    }
}

/// A serve set-up: a new cluster with every object put through its
/// gateway.
struct Setup {
    cluster: Cluster,
    /// Set-up time, seconds.
    secs: f64,
    /// The preload's puts.
    puts: OpLog,
    /// With tracing on, the layer work of the puts.
    window: Option<Window>,
}

/// Sets a cluster up on `root`. The objects are then read back and
/// checked, outside the set-up clock.
fn serve_setup(
    root: PathBuf,
    objects: &Objects,
    t: Option<&Tracing>,
    r: &mut Report,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(root, t)?;
    let (puts, window) = measured(&cluster, t, || objects.preload(&cluster.addr()))?;
    let secs = t0.elapsed().as_secs_f64();
    let puts = puts?;
    r.log(&puts);
    r.count(objects.len() as u64, objects.verify(&cluster.addr()));
    Ok(Setup {
        cluster,
        secs,
        puts,
        window,
    })
}

/// The workload's own objects, made from the seed outside every clock.
fn objects(a: &Args) -> Objects {
    Objects::generate(a.seed, a.sizes.preload, serve::SMALL)
}

/// Median rate over codec rounds of `bytes` per `secs(round)`, MB/s.
fn codec_mb_s(log: &CodecLog, bytes: impl Fn(&Round) -> u64, secs: impl Fn(&Round) -> f64) -> f64 {
    log.median_of(|x| bytes(x) as f64 / 1e6 / secs(x))
}

/// One round of an end-to-end run: a set-up, then the traffic on it.
struct E2eRound {
    setup_s: f64,
    pass: Pass,
    /// Bytes stored per user byte.
    stored_per_byte: f64,
    /// Peak resident set over the traffic, MB.
    peak_rss_mb: f64,
}

/// One end-to-end round of a serve workload on a new cluster.
fn serve_round(
    a: &Args,
    root: PathBuf,
    objects: &Objects,
    seconds: f64,
    r: &mut Report,
) -> Result<E2eRound, String> {
    let mut setup = serve_setup(root, objects, None, r)?;
    reset_peak_rss();
    let pass = serve_pass(a, &mut setup.cluster, objects, seconds, None)?;
    let peak_rss_mb = peak_rss_mb();
    // Every object the cluster holds came through its gateway. A
    // killed daemon's blocks still sit in its directory, which is
    // where they are counted.
    let stored = setup.cluster.stored_bytes()?;
    Ok(E2eRound {
        setup_s: setup.secs,
        stored_per_byte: stored as f64 / objects.bytes() as f64,
        peak_rss_mb,
        pass,
    })
}

/// One end-to-end round of `file-codec`: the seeded input written to a
/// new file — all it sets up, as the CLI functions keep no state
/// between calls — then rounds of encode, decode and repair on it.
fn codec_round(a: &Args, state: &Path, n: usize, seconds: f64) -> Result<E2eRound, String> {
    let input = state.join(format!("input-{n}.bin"));
    let t0 = Instant::now();
    codec::write_input(&input, a.seed, a.sizes.file_len).map_err(|e| format!("input: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    reset_peak_rss();
    let pass = codec_pass(&input, state, seconds);
    let peak_rss_mb = peak_rss_mb();
    std::fs::remove_file(input).map_err(|e| format!("input: {e}"))?;
    let coded = pass.codec.rounds.first().map_or(0, |x| x.coded_bytes);
    Ok(E2eRound {
        setup_s,
        stored_per_byte: coded as f64 / a.sizes.file_len as f64,
        peak_rss_mb,
        pass,
    })
}

/// End-to-end metric names and units, in the order they are printed.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("read_bytes_per_byte", "B/B"),
    ("stored_bytes_per_byte", "B/B"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end run: a warm-up round, then [`ROUNDS`] measured
/// rounds, each a fresh set-up and a [`ROUNDS`]th of `--seconds` of
/// the workload's traffic on it. The metrics are medians over the
/// set-ups or the measured rounds, except the peak resident set.
pub fn run_e2e(a: &Args, state: &Path) -> Result<Report, String> {
    let mut r = Report::new();
    let objects = objects(a);
    let share = a.seconds / ROUNDS as f64;
    let mut setup_s = Vec::new();
    let mut rounds: Vec<E2eRound> = Vec::new();
    for n in 0..=ROUNDS {
        let round = match a.workload {
            Workload::FileCodec => codec_round(a, state, n, share)?,
            _ => serve_round(
                a,
                state.join(format!("cluster-{n}")),
                &objects,
                share,
                &mut r,
            )?,
        };
        r.pass(&round.pass);
        setup_s.push(round.setup_s);
        // The first round's traffic warms the process up (threads,
        // allocator arenas, lazily chosen kernels) and is not
        // measured: it read 5–25 % more CPU per MB than the rounds
        // after it. Its set-up counts like any other.
        if n > 0 {
            rounds.push(round);
        }
    }

    // The workload's own operation: a get, or a file round for
    // `file-codec`.
    let (mut latency_ms, mut used) = (Vec::new(), Vec::new());
    for p in rounds.iter().map(|x| &x.pass) {
        match a.workload {
            Workload::FileCodec => {
                latency_ms.extend(p.codec.rounds.iter().map(|c| c.op_s() * 1e3));
                used.extend(
                    p.codec
                        .rounds
                        .iter()
                        .map(|c| (c.used, a.sizes.file_len as u64)),
                );
            }
            _ => {
                latency_ms.extend(&p.gets.lat_ms);
                used.push((p.used, p.gets.bytes));
            }
        }
    }
    let read_bytes_per_byte: Vec<f64> =
        used.iter().map(|(u, b)| u.read_bytes / *b as f64).collect();
    let cpu_ms_per_mb: Vec<f64> = used.iter().map(|(u, b)| cpu_ms_per_mb(u, *b)).collect();
    let of = |f: fn(&E2eRound) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let peak_rss_mb = of(|x| x.peak_rss_mb);
    println!(
        "# operations={} traffic_s={:.3} setup_s={setup_s:.4?} read_bytes_per_byte={read_bytes_per_byte:.6?} peak_rss_mb={peak_rss_mb:.3?} cpu_ms_per_mb={cpu_ms_per_mb:.4?} latency_ms_p10_p50_p90={:.4?}",
        latency_ms.len(),
        of(|x| x.pass.secs).iter().sum::<f64>(),
        [10.0, 50.0, 90.0].map(|q| percentile(&latency_ms, q).unwrap_or(f64::NAN)),
    );
    let median = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let values = [
        median(&setup_s),
        median(&read_bytes_per_byte),
        median(&of(|x| x.stored_per_byte)),
        // The resident set grows from round to round, so the peak is
        // the first measured round's, on a process warmed up alike in
        // every run.
        peak_rss_mb[0],
    ];
    for ((name, unit), v) in E2E_METRICS.iter().zip(values) {
        r.metric(name, v, unit);
    }
    Ok(r)
}

/// CPU milliseconds per MB (10⁶ bytes) of `bytes`.
fn cpu_ms_per_mb(used: &Usage, bytes: u64) -> f64 {
    used.cpu_s * 1e3 / (bytes as f64 / 1e6)
}

/// Per-layer metric names and units, in the order they are printed.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("cpu_ms_per_mb", "ms/MB"),
    ("get_ops_s", "1/s"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("put_mb_s", "MB/s"),
    ("put_p50_ms", "ms"),
    ("put_p90_ms", "ms"),
    ("encode_mb_s", "MB/s"),
    ("decode_mb_s", "MB/s"),
    ("repair_mb_s", "MB/s"),
    ("client.gets", "count"),
    ("client.puts", "count"),
    ("net.wire.get_ms_mean", "ms"),
    ("net.gateway.get_ms_mean", "ms"),
    ("net.gateway.put_ms_mean", "ms"),
    ("net.gateway.admission_wait_ms_mean", "ms"),
    ("net.gateway.unattributed_get_ms", "ms"),
    ("net.remote.get_block_calls_per_get", "count"),
    ("net.remote.get_block_ms_per_get", "ms"),
    ("net.remote.read_bytes_per_served_byte", "B/B"),
    ("net.remote.errors_per_get", "count"),
    ("net.remote.put_block_calls_per_put", "count"),
    ("net.remote.put_block_ms_per_put", "ms"),
    ("net.remote.probe_calls_per_put", "count"),
    ("net.remote.probe_ms_per_put", "ms"),
    ("dfs.disk.get_block_ms_mean", "ms"),
    ("net.daemon.overhead_ms_per_block", "ms"),
    ("dfs.disk.put_block_ms_mean", "ms"),
    ("dfs.disk.probe_ms_mean", "ms"),
    ("codes.decode_ms_per_get", "ms"),
    ("codes.encode_ms_per_put", "ms"),
    ("cli.read_mb_s", "MB/s"),
    ("erasure.encode_mb_s", "MB/s"),
    ("cli.write_mb_s", "MB/s"),
    ("gf256.mul_add_gb_s", "GB/s"),
    ("cli.encode_unattributed_frac", "ratio"),
    ("erasure.repair_src_blocks", "count"),
    ("cli.repair_read_bytes_per_byte", "B/B"),
    ("erasure.stream.resident_peak_bytes", "B"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// `x / n`, or 0 when there is nothing to divide by.
fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// The traced run. A serve workload makes an unmeasured warm-up round,
/// then two rounds on fresh clusters, each getting for half of the
/// remaining `--seconds`: first untraced, then with every layer
/// wrapped in [`crate::timed::Timed`]. The write path's layers are
/// read from the traced round's set-up: its preload puts each object
/// through the gateway. The `file-codec` workload makes one untraced
/// pass, then times the file pipeline's stages one at a time. Prints
/// the operation metrics from the untraced round and the per-layer
/// breakdown, fails when a child layer's time exceeds its parent's,
/// and reports the tracing overhead. A metric of an operation the
/// workload does not do reads 0.
pub fn run_traced(a: &Args, state: &Path) -> Result<Report, String> {
    let mut r = Report::new();
    let (plain, traced, plain_puts, traced_puts, stages) = if a.workload == Workload::FileCodec {
        let input = state.join("input.bin");
        codec::write_input(&input, a.seed, a.sizes.file_len).map_err(|e| format!("input: {e}"))?;
        let plain = codec_pass(&input, state, a.seconds);
        let stages = codec::time_stages(&input, state)?;
        let no_puts = (OpLog::default(), None);
        (
            plain,
            Pass::default(),
            OpLog::default(),
            no_puts,
            Some(stages),
        )
    } else {
        let objects = objects(a);
        // A warm-up round first, unmeasured, as in the end-to-end run.
        let warm_up = a.seconds / ROUNDS as f64;
        {
            let mut s = serve_setup(state.join("warm-up"), &objects, None, &mut r)?;
            r.pass(&serve_pass(a, &mut s.cluster, &objects, warm_up, None)?);
        }
        let half = (a.seconds - warm_up) / 2.0;
        let mut s = serve_setup(state.join("plain"), &objects, None, &mut r)?;
        let plain = serve_pass(a, &mut s.cluster, &objects, half, None)?;
        drop(s.cluster);
        let t = Tracing::new();
        let mut ts = serve_setup(state.join("traced"), &objects, Some(&t), &mut r)?;
        let traced = serve_pass(a, &mut ts.cluster, &objects, half, Some(&t))?;
        (plain, traced, s.puts, (ts.puts, ts.window), None)
    };
    r.pass(&plain);
    r.pass(&traced);
    // Gets from the traced round's traffic, puts from its set-up.
    let w = traced.window.unwrap_or_default();
    let (traced_puts, put_window) = traced_puts;
    let wp = put_window.unwrap_or_default();

    let client_get = mean(&traced.gets.lat_ms).unwrap_or(0.0);
    let client_put = mean(&traced_puts.lat_ms).unwrap_or(0.0);
    let inner_get = per(w.remote.get.ms() + w.codec.decode.ms(), w.n_get);
    let inner_put = per(
        wp.remote.put.ms() + wp.remote.probe.ms() + wp.codec.encode.ms(),
        wp.n_put,
    );
    if w.n_get > 0.0 {
        r.within("gateway get", w.gw_get_ms, "client get", client_get);
        r.within(
            "store+decode per get",
            inner_get,
            "gateway get",
            w.gw_get_ms,
        );
        r.within(
            "disk get_block",
            w.disk.get.ms(),
            "remote get_block",
            w.remote.get.ms(),
        );
    }
    if wp.n_put > 0.0 {
        r.within("gateway put", wp.gw_put_ms, "client put", client_put);
        r.within(
            "store+probe+encode per put",
            inner_put,
            "gateway put",
            wp.gw_put_ms,
        );
        r.within(
            "disk put_block",
            wp.disk.put.ms(),
            "remote put_block",
            wp.remote.put.ms(),
        );
        r.within(
            "disk probe",
            wp.disk.probe.ms(),
            "remote probe",
            wp.remote.probe.ms(),
        );
    }
    let len = a.sizes.file_len as u64;
    let e2e_encode_s = plain.codec.median_of(|x| x.encode_s);
    let mut stage_values = [0.0; 4];
    if let Some(s) = stages {
        r.within(
            "isolated encode stage",
            s.encode_s * 1e3,
            "cli encode_file",
            e2e_encode_s * 1e3,
        );
        let mb_s = |bytes: u64, secs: f64| bytes as f64 / 1e6 / secs;
        stage_values = [
            mb_s(s.input_bytes, s.read_s),
            mb_s(s.input_bytes, s.encode_s),
            mb_s(s.coded_bytes, s.write_s),
            1.0 - (s.read_s + s.encode_s + s.write_s) / e2e_encode_s,
        ];
    }

    // What the wrappers cost: process CPU time per byte got, traced
    // over untraced.
    let trace_overhead = match a.workload {
        // The file pipeline runs no wrapper, so tracing costs it nothing.
        Workload::FileCodec => 0.0,
        _ => {
            cpu_ms_per_mb(&traced.used, traced.gets.bytes)
                / cpu_ms_per_mb(&plain.used, plain.gets.bytes)
                - 1.0
        }
    };
    let repair = plain.codec.rounds.last().copied().unwrap_or_default();
    let [read_mb_s, encode_stage_mb_s, write_mb_s, unattributed] = stage_values;
    let values: [f64; LAYER_METRICS.len()] = [
        match a.workload {
            Workload::FileCodec => plain.codec.median_of(|x| cpu_ms_per_mb(&x.used, len)),
            _ => cpu_ms_per_mb(&plain.used, plain.gets.bytes),
        },
        per(plain.gets.lat_ms.len() as f64, plain.secs),
        pct(&plain.gets, 50.0),
        pct(&plain.gets, 99.0),
        per(
            plain_puts.bytes as f64 / 1e6,
            plain_puts.lat_ms.iter().sum::<f64>() / 1e3,
        ),
        pct(&plain_puts, 50.0),
        pct(&plain_puts, 90.0),
        codec_mb_s(&plain.codec, |_| len, |x| x.encode_s),
        codec_mb_s(&plain.codec, |_| len, |x| x.decode_s),
        codec_mb_s(&plain.codec, |x| x.repaired_bytes, |x| x.repair_s),
        plain.gets.lat_ms.len() as f64,
        plain_puts.lat_ms.len() as f64,
        client_get - w.gw_get_ms,
        w.gw_get_ms,
        wp.gw_put_ms,
        w.admission_ms,
        w.gw_get_ms - inner_get,
        per(w.remote.get.calls as f64, w.n_get),
        per(w.remote.get.ms(), w.n_get),
        per(w.remote.get.bytes as f64, traced.gets.bytes as f64),
        per(w.remote.get.errors as f64, w.n_get),
        per(wp.remote.put.calls as f64, wp.n_put),
        per(wp.remote.put.ms(), wp.n_put),
        per(wp.remote.probe.calls as f64, wp.n_put),
        per(wp.remote.probe.ms(), wp.n_put),
        per(w.disk.get.ms(), w.disk.get.calls as f64),
        per(w.remote.get.ms() - w.disk.get.ms(), w.disk.get.calls as f64),
        per(wp.disk.put.ms(), wp.disk.put.calls as f64),
        per(wp.disk.probe.ms(), wp.disk.probe.calls as f64),
        per(w.codec.decode.ms(), w.n_get),
        per(wp.codec.encode.ms(), wp.n_put),
        read_mb_s,
        encode_stage_mb_s,
        write_mb_s,
        codec::mul_add_gb_s(Duration::from_millis(300)),
        unattributed,
        repair.src_blocks as f64,
        per(repair.repair_read_bytes, repair.repaired_bytes as f64),
        galloper_obs::global()
            .gauge("stream.pool.resident_peak_bytes")
            .get() as f64,
        trace_overhead,
    ];
    for ((name, unit), v) in LAYER_METRICS.iter().zip(values) {
        r.metric(name, v, unit);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizes = Sizes {
        preload: 4,
        file_len: (3 << 20) + 5,
    };

    fn names(r: &Report) -> Vec<&str> {
        r.metrics.iter().map(|(n, _, _)| *n).collect()
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|(n, _, _)| *n == name).unwrap().1
    }

    /// The `key` field of each object in the `section` array of the
    /// repository's `BENCHMARK.json`, in file order.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let body = &json[json.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    }

    #[test]
    fn metrics_and_workloads_are_the_ones_benchmark_json_declares() {
        for (section, metrics) in [
            ("end_to_end", &E2E_METRICS[..]),
            ("per_layer", &LAYER_METRICS),
        ] {
            let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = metrics.iter().map(|(_, u)| *u).collect();
            assert_eq!(declared(section, "name"), names);
            assert_eq!(declared(section, "unit"), units);
        }
        assert_eq!(
            declared("workloads", "name"),
            Workload::ALL.map(Workload::name)
        );
    }

    /// Every workload, end-to-end and traced, at a tiny size. One test
    /// so the clusters never share the process-wide gateway histograms.
    #[test]
    fn every_workload_passes_a_tiny_run() {
        let state = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&state).unwrap();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload,
                    seed: 9,
                    seconds: 0.4,
                    trace,
                    sizes: TINY,
                };
                let r = if trace {
                    run_traced(&a, &state)
                } else {
                    run_e2e(&a, &state)
                }
                .unwrap();
                assert!(r.correct(), "{workload:?} trace={trace}: {}", r.render());
                if !trace {
                    let expect: Vec<&str> = E2E_METRICS.iter().map(|(n, _)| *n).collect();
                    assert_eq!(names(&r), expect);
                    assert!(r.metrics.iter().all(|(_, v, _)| *v > 0.0), "{}", r.render());
                    continue;
                }
                let expect: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
                assert_eq!(names(&r), expect);
                match workload {
                    Workload::GetHealthy => {
                        assert_eq!(value(&r, "net.remote.get_block_calls_per_get"), 7.0);
                        assert_eq!(value(&r, "net.remote.read_bytes_per_served_byte"), 3.0625);
                        assert_eq!(value(&r, "net.remote.errors_per_get"), 0.0);
                        // The set-up's puts: one 64 KiB group each.
                        assert_eq!(value(&r, "client.puts"), TINY.preload as f64);
                        assert_eq!(value(&r, "net.remote.put_block_calls_per_put"), 7.0);
                        assert!(value(&r, "net.remote.probe_calls_per_put") > 0.0);
                        assert!(value(&r, "put_mb_s") > 0.0);
                    }
                    Workload::GetDegraded => {
                        assert_eq!(value(&r, "net.remote.errors_per_get"), 1.0);
                        assert_eq!(value(&r, "net.remote.read_bytes_per_served_byte"), 2.625);
                    }
                    Workload::FileCodec => {
                        assert_eq!(value(&r, "erasure.repair_src_blocks"), 2.0);
                        assert!(value(&r, "encode_mb_s") > 0.0);
                        assert_eq!(value(&r, "client.gets"), 0.0);
                    }
                }
            }
        }
        std::fs::remove_dir_all(&state).unwrap();
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("get"), None);
    }
}
